package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/stats"
)

// harvestByRowMinimum is the definition the round's harvest is held to:
// every node, the miner or not, finds its earliest announcement by scanning
// the EdgeArrival row Broadcast recorded, and reads each outgoing
// neighbor's delivery from its slot.
func harvestByRowMinimum(res netsim.Result, b int, obs []Observations, outs, slot [][]int) {
	for v := range obs {
		row := res.EdgeArrival[v]
		tMin := stats.InfDuration
		for _, t := range row {
			tMin = min(tMin, t)
		}
		if tMin == stats.InfDuration {
			continue
		}
		for i := range outs[v] {
			if t := row[slot[v][i]]; t != stats.InfDuration {
				obs[v].Offsets[b][i] = t - tMin
			}
		}
	}
}

// fastLinks divides another model's delays by 50, so that many links cost
// less than the flood's 1.05 ms bucket floor.
type fastLinks struct{ latency.Model }

func (m fastLinks) Delay(u, v int) time.Duration { return m.Model.Delay(u, v) / 50 }

// TestHarvestMatchesRowMinimum checks that rebuilding each observation from
// the arrival vector gives what Broadcast's per-edge record gives: on
// broadcasts whose miner is an ordinary node, a silent node, and a member of
// a pair cut off from everyone else (so that nearly every node hears
// nothing), with silent neighbors that censor slots in the middle of rows,
// and with serialized uploads. The shapes add the cases where a closed form
// could part from the flood's record: withholding relays (a non-zero
// RelayDelay), and nodes with no validation delay behind links faster than
// the flood's 1.05 ms bucket floor, where a node relays again after its
// arrival improves. The silent miner is node 2. The miner's own row — its
// arrival is 0, its first echo later — must come out relative to the echo.
// The matrices start out full of garbage: the harvest must write every
// cell.
func TestHarvestMatchesRowMinimum(t *testing.T) {
	const n = 60
	const garbage = time.Duration(-12345)
	shapes := []struct {
		name           string
		relay, zeroFwd bool
	}{
		{"plain", false, false},
		{"relay-delay", true, false},
		{"forward-zero", false, true},
		{"both", true, true},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("seed%d-%s", seed, shape.name), func(t *testing.T) {
				tn := newTestNetwork(t, n, seed)
				adj := tn.table.Undirected()
				// Nodes n-2 and n-1 keep only each other.
				for v := range adj {
					adj[v] = slices.DeleteFunc(adj[v], func(w int) bool { return (w >= n-2) != (v >= n-2) })
				}
				adj[n-2], adj[n-1] = []int{n - 1}, []int{n - 2}
				silent := make([]bool, n)
				intervals := make([]time.Duration, n)
				forward := slices.Clone(tn.forward)
				var relay []time.Duration
				if shape.relay {
					relay = make([]time.Duration, n)
				}
				for v := range silent {
					silent[v] = v%5 == 2
					intervals[v] = time.Duration(v%3) * time.Millisecond * time.Duration(seed%2)
					if shape.zeroFwd && v%3 == 0 {
						forward[v] = 0
					}
					if relay != nil {
						relay[v] = time.Duration(v%4) * 15 * time.Millisecond
					}
				}
				lat := tn.lat
				if shape.zeroFwd {
					lat = fastLinks{lat}
				}
				sim, err := netsim.New(netsim.Config{Adj: adj, Latency: lat, Forward: forward,
					Silent: silent, SendInterval: intervals, RelayDelay: relay})
				if err != nil {
					t.Fatal(err)
				}
				// Every other neighbor is an outgoing one.
				outs, slot := make([][]int, n), make([][]int, n)
				in := inbound{sim: sim, start: make([]int, n+1)}
				for v, row := range adj {
					for k := 0; k < len(row); k += 2 {
						outs[v] = append(outs[v], row[k])
						slot[v] = append(slot[v], k)
					}
					in.outs = append(in.outs, outs[v]...)
					in.start[v+1] = len(in.outs)
				}
				in.hops = make([]time.Duration, len(in.outs))
				for v := range outs {
					if err := in.fillRow(v); err != nil {
						t.Fatal(err)
					}
				}
				in.setCosts(forward, relay, silent)

				sources := []int{0, 2, 31, n - 1} // 2 is silent; n-1 reaches only n-2
				got, want := make([]Observations, n), make([]Observations, n)
				for v := range got {
					got[v].Reset(outs[v], len(sources))
					for i := range got[v].backing {
						got[v].backing[i] = garbage
					}
					want[v].Reset(outs[v], len(sources))
				}
				bc := sim.NewBroadcaster()
				var arrival []time.Duration
				for b, src := range sources {
					res, err := sim.Broadcast(src)
					if err != nil {
						t.Fatal(err)
					}
					if arrival, err = bc.ArrivalInto(arrival, src); err != nil {
						t.Fatal(err)
					}
					echo := in.harvest(arrival, src, b, got)
					harvestByRowMinimum(res, b, want, outs, slot)
					if want := slices.Min(res.EdgeArrival[src]); echo != want {
						t.Fatalf("miner %d's first echo %v, row minimum %v", src, echo, want)
					}
					if echo == 0 || echo == stats.InfDuration {
						t.Fatalf("miner %d's first echo is %v; the case needs one later than its arrival", src, echo)
					}
				}
				censored, finite := 0, 0
				for v := range want {
					for b := range want[v].Offsets {
						if !slices.Equal(got[v].Offsets[b], want[v].Offsets[b]) {
							t.Fatalf("node %d block %d: offsets %v, by row minimum %v",
								v, b, got[v].Offsets[b], want[v].Offsets[b])
						}
						for _, d := range want[v].Offsets[b] {
							if d == stats.InfDuration {
								censored++
							} else {
								finite++
							}
						}
					}
				}
				if censored == 0 || finite == 0 {
					t.Fatalf("%d censored and %d finite offsets; the case needs both", censored, finite)
				}
			})
		}
	}
}
