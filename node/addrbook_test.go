package node

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// fakeClock drives an addrBook through virtual time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockBook() (*addrBook, *fakeClock) {
	b := newAddrBook()
	c := &fakeClock{t: time.Unix(1700000000, 0)}
	b.now = c.now
	return b, c
}

// all returns every known address, sorted for deterministic iteration.
func (b *addrBook) all() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.addrs))
	for a := range b.addrs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// contains reports whether addr is known.
func (b *addrBook) contains(addr string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.addrs[addr]
	return ok
}

// nextDialIn reports how long until addr may be dialed again (zero when
// dialable now or unknown).
func (b *addrBook) nextDialIn(addr string) time.Duration {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.addrs[addr]
	if !ok {
		return 0
	}
	gate := e.NextDial
	if e.BanUntil.After(gate) {
		gate = e.BanUntil
	}
	if d := gate.Sub(now); d > 0 {
		return d
	}
	return 0
}

// fails returns addr's consecutive dial-failure count.
func (b *addrBook) fails(addr string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if e, ok := b.addrs[addr]; ok {
		return e.Fails
	}
	return 0
}

// verified reports whether addr is known and dial-verified.
func (b *addrBook) verified(addr string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.addrs[addr]
	return ok && e.Verified
}

// score returns the identity's current (decayed) misbehavior score.
func (b *addrBook) score(id uint64) float64 {
	now := b.now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.ids[id]
	if !ok {
		return 0
	}
	return b.decayedLocked(s, now)
}

// TestBookCapEvictsUnhealthiest: the book is bounded, and the victim
// preference is banned > most-failed > least recently seen.
func TestBookCapEvictsUnhealthiest(t *testing.T) {
	b, c := newClockBook()
	b.Add("a:1")
	c.advance(time.Second)
	b.Add("b:1")
	c.advance(time.Second)
	b.Add("c:1")
	// Fill the rest of the book with fresher, healthy entries.
	c.advance(time.Second)
	for i := 0; i < bookCap-3; i++ {
		b.Add(fmt.Sprintf("10.9.%d.%d:8333", i/250, i%250+1))
	}
	// c:1 has a failure; it should be evicted before the merely-old a:1.
	b.DialFailed("c:1")
	b.Add("d:1")
	if b.contains("c:1") {
		t.Fatal("failed entry survived eviction")
	}
	if !b.contains("a:1") || !b.contains("b:1") || !b.contains("d:1") {
		t.Fatalf("wrong survivors: %v", b.all())
	}
	if b.Len() != bookCap {
		t.Fatalf("book grew past cap: %d", b.Len())
	}
	// With equal health, the least recently seen entry goes.
	b.Add("e:1")
	if b.contains("a:1") {
		t.Fatal("oldest entry survived over fresher ones")
	}
}

// TestBookIgnoresSelf: self-addresses are never stored, even when gossip
// echoes them back after MarkSelf.
func TestBookIgnoresSelf(t *testing.T) {
	b, _ := newClockBook()
	b.Add("me:9")
	b.MarkSelf("me:9")
	if b.contains("me:9") {
		t.Fatal("MarkSelf did not drop the stored self-address")
	}
	b.Add("me:9", "other:1")
	if b.contains("me:9") {
		t.Fatal("self-address re-added by gossip")
	}
	if !b.contains("other:1") {
		t.Fatal("legitimate address dropped")
	}
	b.DialSucceeded("me:9")
	if b.contains("me:9") {
		t.Fatal("DialSucceeded stored a self-address")
	}
}

// TestBookBackoffAndBudget: failures push the next dial out
// exponentially, success resets, and the consecutive-failure budget
// evicts dead seeds.
func TestBookBackoffAndBudget(t *testing.T) {
	b, c := newClockBook()
	b.Add("seed:1")
	if got := b.Dialable(); len(got) != 1 {
		t.Fatalf("fresh address not dialable: %v", got)
	}
	var prev time.Duration
	for i := 1; i < dialBudget; i++ {
		if evicted := b.DialFailed("seed:1"); evicted {
			t.Fatalf("evicted after %d failures, budget is %d", i, dialBudget)
		}
		next := b.nextDialIn("seed:1")
		if next <= 0 {
			t.Fatalf("failure %d left no backoff gate", i)
		}
		if next <= prev {
			t.Fatalf("backoff not growing: %v after %v", next, prev)
		}
		if len(b.Dialable()) != 0 {
			t.Fatal("backed-off address still dialable")
		}
		// The jittered gate stays within [0.75, 1.25) of the nominal
		// backoffBase·2^(i-1), which stays below backoffMax here.
		nominal := time.Duration(1<<(i-1)) * backoffBase
		if nominal >= backoffMax {
			t.Fatalf("failure %d nominal backoff %v reaches the %v cap", i, nominal, backoffMax)
		}
		if next < 3*nominal/4 || next >= 5*nominal/4 {
			t.Fatalf("failure %d backoff %v outside jitter band of %v", i, next, nominal)
		}
		prev = next
		c.advance(next)
		if len(b.Dialable()) != 1 {
			t.Fatal("address not dialable after backoff expired")
		}
	}
	// Success wipes the slate.
	b.DialSucceeded("seed:1")
	if b.fails("seed:1") != 0 || b.nextDialIn("seed:1") != 0 {
		t.Fatal("success did not reset failure state")
	}
	// Budget exhaustion evicts.
	for i := 0; i < dialBudget; i++ {
		b.DialFailed("seed:1")
	}
	if b.contains("seed:1") {
		t.Fatal("address survived an exhausted failure budget")
	}
}

// TestBookMisbehaviorBanAndDecay: scores accumulate to a ban, bans gate
// both the identity and its address, and decay heals transient sinners.
func TestBookMisbehaviorBanAndDecay(t *testing.T) {
	b, c := newClockBook()
	b.Add("bad:1")
	if banned := b.Misbehave(42, "bad:1", 60); banned {
		t.Fatal("banned below threshold")
	}
	if banned := b.Misbehave(42, "bad:1", 60); !banned {
		t.Fatal("not banned at 120 points")
	}
	if !b.IDBanned(42) || !b.AddrBanned("bad:1") {
		t.Fatal("ban did not gate both identity and address")
	}
	if got := b.BannedIDs(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("BannedIDs = %v", got)
	}
	for _, a := range b.Dialable() {
		if a == "bad:1" {
			t.Fatal("banned address listed as dialable")
		}
	}
	// The ban expires with time and the decayed score has healed.
	c.advance(max(banDuration, 2*decayHalfLife))
	if b.IDBanned(42) || b.AddrBanned("bad:1") {
		t.Fatal("ban did not expire")
	}
	if s := b.score(42); s >= 60 {
		t.Fatalf("score %v did not decay (was 120, two half-lives passed)", s)
	}
	// A transient fault no longer tips a healed peer over.
	if banned := b.Misbehave(42, "bad:1", 40); banned {
		t.Fatal("healed peer re-banned by a small charge")
	}
}

// TestBookPersistence: Save/Load round-trips addresses, health, and bans.
func TestBookPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.json")
	b, _ := newClockBook()
	b.Add("x:1", "y:2")
	b.DialFailed("x:1")
	b.Misbehave(7, "y:2", 500)
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh, _ := newClockBook()
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.contains("x:1") || !fresh.contains("y:2") {
		t.Fatalf("addresses lost: %v", fresh.all())
	}
	if fresh.fails("x:1") != 1 {
		t.Fatalf("failure count lost: %d", fresh.fails("x:1"))
	}
	if !fresh.IDBanned(7) || !fresh.AddrBanned("y:2") {
		t.Fatal("ban state lost")
	}
	// Loading a missing file is a clean no-op.
	empty, _ := newClockBook()
	if err := empty.Load(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatal("missing file produced entries")
	}
}

// TestBookGossipFloodBounded is the regression for the unbounded-book
// satellite: a single peer gossiping thousands of addresses cannot grow
// the book past its cap.
func TestBookGossipFloodBounded(t *testing.T) {
	b, _ := newClockBook()
	for i := 0; i < 5*bookCap; i++ {
		b.Add(fmt.Sprintf("10.0.%d.%d:8333", i/256, i%256))
	}
	if b.Len() > bookCap {
		t.Fatalf("book grew to %d entries past its cap of %d", b.Len(), bookCap)
	}
}

// TestBookEarliestGated: the desperation pool ranks unbanned addresses by
// how soon their backoff gate opens, skips exclusions and bans, and
// breaks timestamp ties on the address.
func TestBookEarliestGated(t *testing.T) {
	b, c := newClockBook()
	b.Add("deep:1")
	b.Add("shallow:1")
	b.Add("banned:1")
	for i := 0; i < 5; i++ {
		b.DialFailed("deep:1")
	}
	b.DialFailed("shallow:1")
	b.Misbehave(0xBAD, "banned:1", 100)
	if got, ok := b.EarliestGated(nil); !ok || got != "shallow:1" {
		t.Fatalf("earliest gated = %q, %v; want shallow:1", got, ok)
	}
	if got, ok := b.EarliestGated(map[string]bool{"shallow:1": true}); !ok || got != "deep:1" {
		t.Fatalf("earliest gated with exclusion = %q, %v; want deep:1", got, ok)
	}
	// Fresh entries share a zero NextDial: the address breaks the tie.
	b.Add("aa:1")
	b.Add("ab:1")
	if got, ok := b.EarliestGated(nil); !ok || got != "aa:1" {
		t.Fatalf("tie-break = %q, %v; want aa:1", got, ok)
	}
	_ = c
}
