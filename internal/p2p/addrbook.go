// Package p2p implements a live TCP Perigee node: Bitcoin-style
// INV/GETDATA/BLOCK gossip over the wire protocol, address discovery, and
// the Perigee neighbor-update loop driven by real arrival timestamps.
//
// The package is the "deployment" counterpart of the simulator: the same
// scoring code (internal/core) ranks peers using timestamps measured on
// real connections. Artificial per-peer latency can be injected to run
// planet-scale experiments on a single machine (see cmd/perigee-cluster),
// and deterministic connection faults can be injected through a
// faults.Plan for chaos experiments.
package p2p

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Address-book health, backoff, and ban policy.
const (
	// bookCap bounds the number of stored addresses; adding beyond it
	// evicts the unhealthiest entry (banned first, then most failures, then
	// least recently seen).
	bookCap = 1024
	// dialBudget is the consecutive-dial-failure budget: an address failing
	// this many times in a row is evicted (it can return via gossip,
	// re-entering with a clean slate).
	dialBudget = 8
	// backoffBase is the delay before the first redial of a failed address;
	// each further failure doubles it (with deterministic per-address
	// jitter) up to backoffMax.
	backoffBase = 500 * time.Millisecond
	backoffMax  = 2 * time.Minute
	// banThreshold is the decayed misbehavior score at which a peer is
	// banned; banDuration is how long the ban lasts.
	banThreshold = 100
	banDuration  = 10 * time.Minute
	// decayHalfLife halves a peer's misbehavior score per elapsed interval,
	// so transient faults heal.
	decayHalfLife = 5 * time.Minute
)

// addrEntry is one address's health record.
type addrEntry struct {
	Addr        string    `json:"addr"`
	Added       time.Time `json:"added"`
	LastSeen    time.Time `json:"last_seen"`
	LastSuccess time.Time `json:"last_success,omitempty"`
	Fails       int       `json:"fails,omitempty"`
	NextDial    time.Time `json:"next_dial,omitempty"`
	BanUntil    time.Time `json:"ban_until,omitempty"`
	// Verified marks an address we have successfully dialed and
	// handshaked at least once (a "tried" entry in Bitcoin's addrman
	// terms) as opposed to unconfirmed gossip rumor. Verified entries are
	// never evicted to make room for rumor.
	Verified bool `json:"verified,omitempty"`
}

// idScore tracks one peer identity's decaying misbehavior score.
type idScore struct {
	Score    float64   `json:"score"`
	At       time.Time `json:"at"` // last decay checkpoint
	BanUntil time.Time `json:"ban_until,omitempty"`
}

// AddrBook is the node's persistent peer-health registry (its addrMan,
// §2.1): a capped set of known addresses with per-address dial health and
// exponential backoff, plus per-identity misbehavior scores feeding the
// ban policy. All methods are safe for concurrent use.
type AddrBook struct {
	now func() time.Time

	mu    sync.RWMutex
	addrs map[string]*addrEntry
	self  map[string]bool
	ids   map[uint64]*idScore
}

// NewAddrBook returns an empty address book.
func NewAddrBook() *AddrBook {
	return &AddrBook{
		now:   time.Now,
		addrs: make(map[string]*addrEntry),
		self:  make(map[string]bool),
		ids:   make(map[uint64]*idScore),
	}
}

// MarkSelf registers the node's own addresses: they are never stored and
// are dropped if already present, so addr-gossip echoing the node back to
// itself cannot waste book slots or dial attempts.
func (b *AddrBook) MarkSelf(addrs ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range addrs {
		if a == "" {
			continue
		}
		b.self[a] = true
		delete(b.addrs, a)
	}
}

// Add records addresses; empty strings and the node's own addresses are
// ignored. When the book is at capacity the unhealthiest entry is evicted
// to make room — a single gossiping peer can no longer grow the book
// without bound.
func (b *AddrBook) Add(addrs ...string) {
	for _, a := range addrs {
		b.AddSeen(a, 0)
	}
}

// AddSeen records one gossiped address together with the sender's claimed
// age: LastSeen is backdated by age, so a stale rumor enters the book less
// healthy than a fresh one. Reports whether the address was newly admitted
// (false for duplicates, self addresses, and rejections at capacity). An
// unverified newcomer can evict other rumor but never a dial-verified
// entry — a flood of fabricated addresses cannot push out addresses we
// know are real.
func (b *AddrBook) AddSeen(addr string, age time.Duration) bool {
	now := b.now()
	seen := now.Add(-age)
	b.mu.Lock()
	defer b.mu.Unlock()
	if addr == "" || b.self[addr] {
		return false
	}
	if e, ok := b.addrs[addr]; ok {
		if seen.After(e.LastSeen) {
			e.LastSeen = seen
		}
		return false
	}
	if len(b.addrs) >= bookCap {
		if !b.evictLocked(now, false) {
			return false // everything else is healthier than a newcomer
		}
	}
	b.addrs[addr] = &addrEntry{Addr: addr, Added: now, LastSeen: seen}
	return true
}

// evictLocked removes the unhealthiest entry: banned first, then most
// consecutive failures, then least recently seen. Unless includeVerified
// is set, dial-verified entries are exempt — rumor is only allowed to
// displace rumor. Reports whether a slot was freed.
func (b *AddrBook) evictLocked(now time.Time, includeVerified bool) bool {
	var victim *addrEntry
	worse := func(e, v *addrEntry) bool {
		eBanned, vBanned := now.Before(e.BanUntil), now.Before(v.BanUntil)
		if eBanned != vBanned {
			return eBanned
		}
		if e.Verified != v.Verified {
			return !e.Verified
		}
		if e.Fails != v.Fails {
			return e.Fails > v.Fails
		}
		return e.LastSeen.Before(v.LastSeen)
	}
	for _, e := range b.addrs {
		if e.Verified && !includeVerified && !now.Before(e.BanUntil) {
			continue // verified and not banned: protected from rumor
		}
		if victim == nil || worse(e, victim) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(b.addrs, victim.Addr)
	return true
}

// Len returns the number of known addresses.
func (b *AddrBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.addrs)
}

// Dialable returns the addresses currently worth dialing: not banned and
// past their backoff gate, sorted for deterministic iteration.
func (b *AddrBook) Dialable() []string {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.addrs))
	for a, e := range b.addrs {
		if now.Before(e.NextDial) || now.Before(e.BanUntil) {
			continue
		}
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// EarliestGated returns the unbanned address (not in exclude) whose
// backoff gate opens soonest — the pool a starved node overrides backoff
// from when nothing is ordinarily dialable. Ties break on the address so
// replays agree.
func (b *AddrBook) EarliestGated(exclude map[string]bool) (string, bool) {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	var best string
	var bestAt time.Time
	found := false
	for a, e := range b.addrs {
		if exclude[a] || now.Before(e.BanUntil) {
			continue
		}
		if !found || e.NextDial.Before(bestAt) || (e.NextDial.Equal(bestAt) && a < best) {
			best, bestAt, found = a, e.NextDial, true
		}
	}
	return best, found
}

// DialFailed records a failed dial or handshake to addr: the failure
// count grows, the next dial is pushed out exponentially (with
// deterministic per-(addr, fails) jitter so replays agree), and once the
// consecutive-failure budget is spent the address is evicted. Reports
// whether the address was evicted.
func (b *AddrBook) DialFailed(addr string) (evicted bool) {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.addrs[addr]
	if !ok {
		return false
	}
	e.Fails++
	if e.Fails >= dialBudget {
		delete(b.addrs, addr)
		return true
	}
	backoff := backoffBase << (e.Fails - 1)
	if backoff > backoffMax || backoff <= 0 {
		backoff = backoffMax
	}
	// Deterministic jitter in [0.75, 1.25): stateless, so a replayed run
	// schedules identical retry times.
	backoff = time.Duration(float64(backoff) * (0.75 + 0.5*hashFrac(addr, e.Fails)))
	e.NextDial = now.Add(backoff)
	return false
}

// DialSucceeded records a completed dial+handshake: the failure count and
// backoff gate reset, the entry is marked dial-verified, and the address
// is (re-)added if gossip hadn't delivered it yet. A verified newcomer
// evicts rumor first and only displaces another verified entry when no
// rumor remains.
func (b *AddrBook) DialSucceeded(addr string) {
	if addr == "" {
		return
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.self[addr] {
		return
	}
	e, ok := b.addrs[addr]
	if !ok {
		if len(b.addrs) >= bookCap && !b.evictLocked(now, false) && !b.evictLocked(now, true) {
			return
		}
		e = &addrEntry{Addr: addr, Added: now}
		b.addrs[addr] = e
	}
	e.Fails = 0
	e.NextDial = time.Time{}
	e.LastSeen = now
	e.LastSuccess = now
	e.Verified = true
}

// VerifiedCount returns the number of dial-verified addresses.
func (b *AddrBook) VerifiedCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, e := range b.addrs {
		if e.Verified {
			n++
		}
	}
	return n
}

// GossipAddr is one address eligible for an ADDR response, with the time
// elapsed since this node last had evidence of it.
type GossipAddr struct {
	Addr string
	Age  time.Duration
}

// Gossipable returns the addresses eligible for an ADDR response — every
// known, non-banned address except those in exclude — with their ages,
// sorted by address for deterministic iteration. Sampling (shuffling,
// truncation) is the caller's job; the book only guarantees banned and
// excluded entries never leak into gossip.
func (b *AddrBook) Gossipable(exclude ...string) []GossipAddr {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]GossipAddr, 0, len(b.addrs))
	for a, e := range b.addrs {
		if now.Before(e.BanUntil) {
			continue
		}
		skip := false
		for _, x := range exclude {
			if a == x {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		age := now.Sub(e.LastSeen)
		if age < 0 {
			age = 0
		}
		out = append(out, GossipAddr{Addr: a, Age: age})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// FeelerCandidates returns the never-verified addresses that are
// currently dialable (not banned, past backoff), sorted for deterministic
// iteration — the pool a feeler connection picks from.
func (b *AddrBook) FeelerCandidates() []string {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0)
	for a, e := range b.addrs {
		if e.Verified || now.Before(e.NextDial) || now.Before(e.BanUntil) {
			continue
		}
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// decayedLocked returns the identity's score decayed to now.
func (b *AddrBook) decayedLocked(s *idScore, now time.Time) float64 {
	if s.Score <= 0 {
		return 0
	}
	elapsed := now.Sub(s.At)
	if elapsed <= 0 {
		return s.Score
	}
	halves := float64(elapsed) / float64(decayHalfLife)
	return s.Score * math.Exp2(-halves)
}

// Misbehave charges points of misbehavior to a peer identity, decaying
// the existing score first. When the score crosses the ban threshold the
// identity is banned for the configured duration and — when its listening
// address is known — the address is gated too, so banned peers are both
// refused on accept and skipped on dial. Reports whether the peer is now
// banned.
func (b *AddrBook) Misbehave(id uint64, listenAddr string, points float64) (banned bool) {
	if points <= 0 {
		return b.IDBanned(id)
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.ids[id]
	if !ok {
		s = &idScore{At: now}
		b.ids[id] = s
	}
	s.Score = b.decayedLocked(s, now) + points
	s.At = now
	if s.Score >= banThreshold {
		s.BanUntil = now.Add(banDuration)
		banned = true
		if e, ok := b.addrs[listenAddr]; ok {
			e.BanUntil = s.BanUntil
		}
	}
	return banned
}

// IDBanned reports whether the peer identity is currently banned.
func (b *AddrBook) IDBanned(id uint64) bool {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.ids[id]
	return ok && now.Before(s.BanUntil)
}

// AddrBanned reports whether the address is currently gated by a ban.
func (b *AddrBook) AddrBanned(addr string) bool {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.addrs[addr]
	return ok && now.Before(e.BanUntil)
}

// BannedIDs returns the currently banned identities, sorted.
func (b *AddrBook) BannedIDs() []uint64 {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []uint64
	for id, s := range b.ids {
		if now.Before(s.BanUntil) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bookSnapshot is the book's JSON persistence shape.
type bookSnapshot struct {
	Addrs []addrEntry         `json:"addrs"`
	IDs   map[string]*idScore `json:"ids,omitempty"`
}

// Save writes the book (addresses, health, bans) as JSON to path,
// atomically via a temp-file rename.
func (b *AddrBook) Save(path string) error {
	b.mu.RLock()
	snap := bookSnapshot{IDs: make(map[string]*idScore, len(b.ids))}
	for _, e := range b.addrs {
		snap.Addrs = append(snap.Addrs, *e)
	}
	for id, s := range b.ids {
		cp := *s
		snap.IDs[fmt.Sprintf("%016x", id)] = &cp
	}
	b.mu.RUnlock()
	sort.Slice(snap.Addrs, func(i, j int) bool { return snap.Addrs[i].Addr < snap.Addrs[j].Addr })
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("p2p: encoding address book: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("p2p: writing address book: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load merges a saved book into this one. Missing files are not an
// error — a first run simply starts empty.
func (b *AddrBook) Load(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("p2p: reading address book: %w", err)
	}
	var snap bookSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("p2p: decoding address book %s: %w", path, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range snap.Addrs {
		e := snap.Addrs[i]
		if e.Addr == "" || b.self[e.Addr] {
			continue
		}
		if len(b.addrs) >= bookCap {
			break
		}
		if _, ok := b.addrs[e.Addr]; !ok {
			cp := e
			b.addrs[e.Addr] = &cp
		}
	}
	for key, s := range snap.IDs {
		var id uint64
		if _, err := fmt.Sscanf(key, "%x", &id); err != nil || id == 0 {
			continue
		}
		if _, ok := b.ids[id]; !ok && s != nil {
			cp := *s
			b.ids[id] = &cp
		}
	}
	return nil
}

// hashFrac maps (addr, n) to a deterministic value in [0, 1).
func hashFrac(addr string, n int) float64 {
	h := sha256.New()
	h.Write([]byte(addr))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	var digest [32]byte
	h.Sum(digest[:0])
	return float64(binary.LittleEndian.Uint64(digest[:8])>>11) / float64(1<<53)
}
