// Package cliopts holds flag-parsing helpers shared by the live-node
// binaries.
package cliopts

import (
	"fmt"
	"strings"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/core"
)

// Selector builds the neighbor-selection policy named by the -scoring,
// -explore and -percentile flags, for a node keeping outDegree outbound
// connections. ucb ignores -explore, since it replaces neighbors through
// confidence-interval evictions, and random ignores -percentile.
func Selector(scoring string, explore int, percentile float64, outDegree int) (perigee.Selector, error) {
	name := strings.ToLower(scoring)
	var sel perigee.Selector
	switch name {
	case "subset":
		sel = perigee.SubsetSelector(explore, percentile)
	case "vanilla":
		sel = perigee.VanillaSelector(explore, percentile)
	case "ucb":
		sel = perigee.UCBSelector(percentile, core.DefaultParams(core.UCB).UCBConstant)
	case "random":
		sel = perigee.RandomSelector(explore)
	default:
		return nil, fmt.Errorf("unknown scoring %q (want subset, vanilla, ucb, or random)", scoring)
	}
	// A rotation policy that explores its whole out-degree churns the full
	// topology every round.
	if name != "ucb" && explore >= outDegree {
		return nil, fmt.Errorf("-explore %d must be below -out-degree %d", explore, outDegree)
	}
	return sel, nil
}
