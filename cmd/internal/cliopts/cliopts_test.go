package cliopts

import (
	"reflect"
	"testing"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/core"
)

// TestSelector checks that every -scoring value builds the matching
// built-in from the -explore and -percentile flags, and that an unknown
// name or an -explore that fills the out-degree is rejected.
func TestSelector(t *testing.T) {
	ucb := core.DefaultParams(core.UCB).UCBConstant
	cases := []struct {
		scoring    string
		explore    int
		percentile float64
		outDegree  int
		want       perigee.Selector // nil: an error is expected
	}{
		{"subset", 2, 0.9, 8, perigee.SubsetSelector(2, 0.9)},
		{"Subset", 1, 0.5, 4, perigee.SubsetSelector(1, 0.5)},
		{"vanilla", 1, 0.5, 4, perigee.VanillaSelector(1, 0.5)},
		{"ucb", 1, 0.5, 4, perigee.UCBSelector(0.5, ucb)},
		{"random", 3, 0.5, 4, perigee.RandomSelector(3)},
		// ucb evicts instead of exploring, so -explore does not bound it.
		{"ucb", 4, 0.9, 4, perigee.UCBSelector(0.9, ucb)},
		{"subset", 4, 0.9, 4, nil},
		{"vanilla", 5, 0.9, 4, nil},
		{"random", 8, 0.9, 8, nil},
		{"bogus", 1, 0.9, 4, nil},
		{"", 1, 0.9, 4, nil},
	}
	for _, tc := range cases {
		got, err := Selector(tc.scoring, tc.explore, tc.percentile, tc.outDegree)
		if tc.want == nil {
			if err == nil {
				t.Errorf("Selector(%q, explore %d, out-degree %d) accepted", tc.scoring, tc.explore, tc.outDegree)
			}
			continue
		}
		if err != nil {
			t.Errorf("Selector(%q, explore %d, out-degree %d): %v", tc.scoring, tc.explore, tc.outDegree, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Selector(%q, %d, %v) = %#v, want %#v", tc.scoring, tc.explore, tc.percentile, got, tc.want)
		}
	}
}
