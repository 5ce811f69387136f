package serve

import (
	"encoding/json"

	"github.com/perigee-net/perigee/internal/experiments"
)

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Scenario is a registered scenario ID (see GET /scenarios).
	Scenario string `json:"scenario"`
	// Quick starts from experiments.ShortOptions (CI scale) instead of
	// DefaultOptions (paper scale).
	Quick bool `json:"quick"`
	// Options overrides individual fields of the base options: each key,
	// when present, replaces the experiments.Options field it names (see
	// Options.ApplyJSON — durations are milliseconds under an _ms key,
	// enumerations use their CLI spellings, unknown keys are refused). The
	// file-backed workload trace fields (TraceFile, RecordTrace) have no
	// key — a network client has no business naming server-side paths.
	Options map[string]json.RawMessage `json:"options,omitempty"`
}

// resolveOptions applies the request's patch over its base options.
func (req SubmitRequest) resolveOptions() (experiments.Options, error) {
	opt := experiments.DefaultOptions()
	if req.Quick {
		opt = experiments.ShortOptions()
	}
	return opt, opt.ApplyJSON(req.Options)
}
