package node

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee"
)

// Option configures a live node under construction; see New. The options
// mirror the simulator's root API: the same Selector values and the same
// RoundStats observer payloads work in both environments.
type Option func(*config) error

// config is the node under construction. Options write it in place, so a
// knob is defined, documented and range-checked once — by its option — and
// newNode only resolves the zero values the options left (withDefaults), the
// neighbor-selection policy included. A field no option writes documents
// itself. Policy no program tunes — the handshake timeout, the slow-consumer
// budget, the observation cap, the address book's backoff and ban rules,
// the addr-gossip rate limits — is fixed by package constants.
type config struct {
	NodeID          uint64                              // WithNodeID; zero derives it from the seed
	Seed            uint64                              // WithSeed
	ListenAddr      string                              // WithListen
	MaxInbound      int                                 // WithMaxInbound
	OutDegree       int                                 // WithOutDegree
	Selector        perigee.Selector                    // WithSelector
	RoundBlocks     int                                 // WithRoundBlocks
	PeerDelay       func(remoteID uint64) time.Duration // WithLatencyInjection
	AddrBookPath    string                              // WithAddrBookPath
	Faults          perigee.FaultPlan                   // WithFaults
	ReadIdleTimeout time.Duration                       // WithIdleTimeout
	RedialInterval  time.Duration                       // WithRedialInterval
	Discovery       discoveryConfig                     // WithDiscovery, WithFeelerInterval
	Logf            func(format string, args ...any)    // WithLogf

	// SilentRelay makes the node a free-rider: received blocks are stored
	// and served on request but never announced — not when they arrive and
	// not as the tip shown to a peer that connects later. Self-mined
	// blocks are still announced. The live form of the simulator's Silent
	// mask; WithAdversary sets it, as it sets RelayDelay and Frozen.
	SilentRelay bool
	// RelayDelay withholds every relay of a received block by the given
	// duration before announcing it onward (self-mined blocks are
	// announced immediately) — the live form of the simulator's RelayDelay
	// table.
	RelayDelay time.Duration
	// Frozen disables the neighbor-update protocol: Perigee rounds still
	// reset the observation window and report, but keep every outbound
	// peer and dial nothing.
	Frozen bool
	// WriteTimeout bounds each flush of a peer's writer, at most 64 KB
	// plus one frame (default 10s); a peer that cannot absorb a flush in
	// this long is disconnected by its write loop.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful flush of peer send queues during
	// Stop (default 1s).
	DrainTimeout time.Duration

	seedSet   bool              // WithSeed ran; otherwise New draws a random seed
	network   string            // WithNetwork
	observers []Observer        // WithObserver
	mine      time.Duration     // WithMiner
	adversary perigee.Adversary // WithAdversary
}

// positive stores v in dst unless it is zero or negative.
func positive[T int | time.Duration](dst *T, v T, what string) error {
	if v <= 0 {
		return fmt.Errorf("node: %s %v must be positive", what, v)
	}
	*dst = v
	return nil
}

// WithListen sets the accepting address ("127.0.0.1:0" for an ephemeral
// port). The default is a client-only node that does not listen.
func WithListen(addr string) Option {
	return func(c *config) error {
		c.ListenAddr = addr
		return nil
	}
}

// WithSeed roots the node's local randomness (identity, nonces, address
// shuffles, selector streams). The default is a fresh random seed per
// node, so distinct nodes get distinct identities out of the box; give
// each node its own explicit seed when reproducible behavior matters
// (equal seeds mean equal node IDs, which refuse to interconnect).
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.Seed = seed
		c.seedSet = true
		return nil
	}
}

// WithNodeID pins the node's 64-bit identity. The default derives it from
// the seed.
func WithNodeID(id uint64) Option {
	return func(c *config) error {
		if id == 0 {
			return fmt.Errorf("node: node ID must be non-zero")
		}
		c.NodeID = id
		return nil
	}
}

// WithNetwork sets the network tag anchoring the genesis block; all nodes
// of one network must share it. Default "perigee-devnet".
func WithNetwork(tag string) Option {
	return func(c *config) error {
		if tag == "" {
			return fmt.Errorf("node: empty network tag")
		}
		c.network = tag
		return nil
	}
}

// WithOutDegree sets the target number of outbound connections the
// Perigee round maintains (paper: 8).
func WithOutDegree(d int) Option {
	return func(c *config) error { return positive(&c.OutDegree, d, "out-degree") }
}

// WithMaxInbound caps accepted connections (paper: 20).
func WithMaxInbound(m int) Option {
	return func(c *config) error { return positive(&c.MaxInbound, m, "inbound cap") }
}

// WithSelector installs the neighbor-selection policy driving the node's
// per-round keep/drop/dial decision. perigee.Selector is the type the live
// driver runs, so the value (built-in or custom) is installed as-is, the
// same value perigee.WithSelector hands the simulator; a built-in with
// invalid arguments is refused here. Default perigee.SubsetSelector(2,
// 0.9), the paper's preferred rule.
func WithSelector(sel perigee.Selector) Option {
	return func(c *config) error {
		if sel == nil {
			return fmt.Errorf("node: nil selector")
		}
		if e, ok := sel.(interface{ SelectorError() error }); ok {
			if err := e.SelectorError(); err != nil {
				return err
			}
		}
		c.Selector = sel
		return nil
	}
}

// WithRoundBlocks makes the node run a Perigee round automatically as
// soon as b blocks have been observed since the last round. The default
// is manual operation: rounds run only when Round is called.
func WithRoundBlocks(b int) Option {
	return func(c *config) error { return positive(&c.RoundBlocks, b, "round blocks") }
}

// WithObserver attaches a streaming round observer; see Observer. May be
// given multiple times — observers run in registration order.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		if o == nil {
			return fmt.Errorf("node: nil observer")
		}
		c.observers = append(c.observers, o)
		return nil
	}
}

// WithLatencyInjection applies an artificial one-way delay before every
// message sent to the given remote node — latency injection for
// single-machine experiments, e.g. replaying perigee.GeographicLatency
// link delays over real TCP connections.
func WithLatencyInjection(delay func(remoteID uint64) time.Duration) Option {
	return func(c *config) error {
		if delay == nil {
			return fmt.Errorf("node: nil latency injection")
		}
		c.PeerDelay = delay
		return nil
	}
}

// WithMiner mines blocks on a Poisson schedule with the given mean
// interval, starting when the node starts. The default is no mining.
func WithMiner(mean time.Duration) Option {
	return func(c *config) error { return positive(&c.mine, mean, "mining interval") }
}

// WithAdversary runs this node as one compromised identity of the given
// attack strategy — the same perigee.Adversary values that drive the
// simulator via perigee.WithAdversary. The strategy's Setup is invoked
// for a single-node environment and its behavioral verdict is applied to
// the node: Silent (received blocks are never relayed), RelayDelay
// (relays are withheld before going out), and Frozen (the neighbor-update
// protocol is disabled). Environment-level hooks — observation tampering
// and the per-round topology agent — act on victims and global state a
// single live identity cannot reach, so they apply only in simulation;
// strategies that need a tamperable latency model (RegionalPartition)
// are rejected here.
func WithAdversary(a perigee.Adversary) Option {
	return func(c *config) error {
		if a == nil {
			return fmt.Errorf("node: nil adversary strategy")
		}
		c.adversary = a
		return nil
	}
}

// WithFaults injects deterministic connection faults from the plan:
// dials may fail outright, and established connections may be reset,
// stalled, throttled, or made lossy, exactly as the plan's seeded
// verdicts dictate — chaos testing for the resilience layer. The same
// plan with the same seed reproduces the same faults on every run. See
// perigee.MixedFaults and perigee.FaultPlan. The default injects
// nothing.
func WithFaults(plan perigee.FaultPlan) Option {
	return func(c *config) error {
		if plan == nil {
			return fmt.Errorf("node: nil fault plan")
		}
		c.Faults = plan
		return nil
	}
}

// WithAddrBookPath persists the address book — addresses, per-address
// health, and bans — to the given file: loaded when the node is built
// (a missing file is fine) and saved on Stop, so peer reputation
// survives restarts. The default keeps the book in memory only.
func WithAddrBookPath(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("node: empty address book path")
		}
		c.AddrBookPath = path
		return nil
	}
}

// WithIdleTimeout bounds silence on every connection (default 90s):
// after one idle interval the peer is probed with a ping, and a second
// silent interval disconnects it — this is what reclaims stalled and
// half-open connections.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *config) error { return positive(&c.ReadIdleTimeout, d, "idle timeout") }
}

// WithRedialInterval runs a maintenance loop that redials addresses
// from the book whenever the outbound degree has fallen below the
// target — recovery for connections lost to faults between Perigee
// rounds. The default relies on rounds alone to re-dial.
func WithRedialInterval(d time.Duration) Option {
	return func(c *config) error { return positive(&c.RedialInterval, d, "redial interval") }
}

// WithDiscovery turns on active addr-gossip peer discovery: every refresh
// interval the node asks a couple of random peers for addresses (GETADDR)
// until the book holds targetKnown entries, so a node given a single seed
// address bootstraps the rest of the network on its own. Pass targetKnown
// 0 for the default book target (128). The GETADDR service window follows
// refresh when that is shorter than 30s, so the serving side never
// starves refresh requests. Passive discovery — answering GETADDR with
// rate-limited random samples (one per peer per window, misbehavior
// points past 4), admitting at most 64 unsolicited addresses per peer per
// window, dropping addresses older than 3h, trickling each fresh address
// to 2 random peers, announcing the node's own address on connect — is
// always on, and its limits are fixed.
func WithDiscovery(refresh time.Duration, targetKnown int) Option {
	return func(c *config) error {
		if targetKnown < 0 {
			return fmt.Errorf("node: discovery target %d must be non-negative", targetKnown)
		}
		c.Discovery.TargetKnown = targetKnown
		return positive(&c.Discovery.RefreshInterval, refresh, "discovery refresh interval")
	}
}

// WithFeelerInterval runs feeler connections: every interval the node
// dials one never-verified address from its book, completes the
// handshake, and disconnects — promoting the entry to dial-verified (or
// evicting it via the failure budget if it was fabricated). Verified
// entries are never displaced by unverified rumor, so feelers keep the
// book anchored in addresses known to be real. The default runs no
// feelers.
func WithFeelerInterval(d time.Duration) Option {
	return func(c *config) error { return positive(&c.Discovery.FeelerInterval, d, "feeler interval") }
}

// WithLogf directs diagnostic log lines to f. The default discards them.
func WithLogf(f func(format string, args ...any)) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("node: nil log function")
		}
		c.Logf = f
		return nil
	}
}
