package experiments

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/trace"
)

// runtimeOnly lists the Options fields that are hooks rather than
// configuration and so have no row in fields.
var runtimeOnly = []string{"RoundObserver", "TraceObserver"}

// TestFieldsCoverOptions is the structural guard: every exported Options
// field is described by exactly one row of the fields table or is on the
// runtime-only list, and every row is well formed. Adding a field without
// its row — the one further edit that makes it hashed, range-checked,
// patchable and settable by flag — fails here.
func TestFieldsCoverOptions(t *testing.T) {
	rows := map[string]int{}
	for _, f := range fields {
		rows[f.name]++
	}
	hooks := map[string]bool{}
	for _, name := range runtimeOnly {
		hooks[name] = true
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case hooks[name] && rows[name] == 0:
		case !hooks[name] && rows[name] == 1:
		default:
			t.Errorf("Options.%s: %d rows in fields, runtime-only %v; want exactly one of the two", name, rows[name], hooks[name])
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("fields describes %s, which is not an Options field", name)
	}

	seen := map[string]string{}
	unique := func(kind, key, owner string) {
		if key == "" {
			return
		}
		if prior, dup := seen[kind+key]; dup {
			t.Errorf("%s key %q names both %s and %s", kind, key, prior, owner)
		}
		seen[kind+key] = owner
	}
	for _, f := range fields {
		unique("hash", f.hash, f.name)
		unique("json", f.json, f.name)
		unique("flag", f.flag, f.name)
		sf, ok := typ.FieldByName(f.name)
		if !ok {
			continue
		}
		isDuration := sf.Type == reflect.TypeOf(time.Duration(0))
		switch sf.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.String:
		default:
			t.Errorf("%s: kind %v is not one the table's consumers handle", f.name, sf.Type.Kind())
		}
		if f.enum != nil && sf.Type.Kind() != reflect.Int {
			t.Errorf("%s: an enumeration must be int-backed, got %v", f.name, sf.Type)
		}
		if (f.unit != 0) != isDuration && f.json != "" {
			t.Errorf("%s: JSON unit %v on a %v field", f.name, f.unit, sf.Type)
		}
		if f.unit == time.Millisecond && !strings.HasSuffix(f.json, "_ms") {
			t.Errorf("%s: millisecond JSON key %q lacks the _ms suffix", f.name, f.json)
		}
		if (f.flag == "") != (f.help == "") {
			t.Errorf("%s: flag %q and help %q must come together", f.name, f.flag, f.help)
		}
		if f.rng != "" {
			if _, _, err := parseInterval(f.rng); err != nil {
				t.Errorf("%s: %v", f.name, err)
			}
			if f.enum != nil || sf.Type.Kind() == reflect.String {
				t.Errorf("%s: a range on a field that is not a plain number", f.name)
			}
		}
	}
}

// TestJSONKeysGolden pins the experiment service's wire format: the keys
// of a JSON options patch. (cmd/perigee-sim pins the flag names.)
func TestJSONKeysGolden(t *testing.T) {
	want := []string{
		"nodes", "trials", "rounds", "round_blocks", "fraction", "seed",
		"mean_validation_ms", "validation", "adversary_fraction",
		"capture_threshold", "workers", "lambda_sources",
		"observation_window", "shards", "latency_mode", "block_interval_ms",
		"trace_level", "counterfactual_k",
	}
	var got []string
	for _, f := range fields {
		if f.json != "" {
			got = append(got, f.json)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSON patch keys\n got %q\nwant %q", got, want)
	}
}

// TestHashPinned pins the canonical encoding itself, so a change to a hash
// key, the field order or a value's formatting shows up as a changed cache
// key. The version prefix is bumped (and these re-pinned) whenever the same
// options start producing different numbers, as when an RNG stream moves.
func TestHashPinned(t *testing.T) {
	every := ShortOptions()
	every.Nodes, every.Trials, every.Rounds, every.RoundBlocks = 321, 2, 7, 33
	every.Fraction, every.Seed = 0.75, 99
	every.MeanValidation, every.Validation = 37*time.Millisecond, ValidationExponential
	every.AdversaryFraction, every.CaptureThreshold = 0.2, 0.5
	every.Workers, every.LambdaSources, every.ObservationWindow, every.Shards = 5, 64, 10, 4
	every.LatencyMode, every.BlockInterval = latency.Streaming, 1500*time.Millisecond
	every.TraceFile, every.RecordTrace = `in "q".json`, "out.json"
	every.TraceLevel, every.CounterfactualK = 2, 3
	for _, tc := range []struct {
		name string
		opt  Options
		want string
	}{
		{"default", DefaultOptions(), "1802c2d64cb5040a25077be35c9eb4e4d007ed9b58beb4940d7888040530d02a"},
		{"short", ShortOptions(), "d7dc108f3600c3b7622cc28b7eda495254b3ae8f4d21fb7d8f1e9b5a1b5cd782"},
		{"every field set", every, "be85921d23f3e21a35fe31f38d7e641567da2cbf13be0260ae1f4f10b7f80db7"},
	} {
		if got := tc.opt.Hash(); got != tc.want {
			t.Errorf("%s options hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// bump moves a field of o to a different valid-looking value.
func bump(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Float64:
		v.SetFloat(v.Float()/2 + 0.125)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	default:
		v.SetInt(v.Int() + 1)
	}
}

// TestHashSensitivity changes every field in turn: the hash moves exactly
// for the fields that carry a hash key, and the scheduling knob and the
// runtime hooks leave it alone so they cannot fragment the cache.
func TestHashSensitivity(t *testing.T) {
	ref := DefaultOptions().Hash()
	for _, f := range fields {
		o := DefaultOptions()
		bump(f.in(&o))
		if moved := o.Hash() != ref; moved != (f.hash != "") {
			t.Errorf("changing %s moved the hash: %v, want %v", f.name, moved, f.hash != "")
		}
	}
	o := DefaultOptions()
	o.RoundObserver = func(string, int, core.RoundEvent) {}
	o.TraceObserver = func(trace.Record) {}
	if o.Hash() != ref {
		t.Error("the runtime hooks changed the hash")
	}
}

// TestValidateRanges walks the boundary of each declared range.
func TestValidateRanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Options)
		ok   bool
	}{
		{"nodes 19", func(o *Options) { o.Nodes = 19 }, false},
		{"nodes 20", func(o *Options) { o.Nodes = 20 }, true},
		{"trials 0", func(o *Options) { o.Trials = 0 }, false},
		{"rounds 0", func(o *Options) { o.Rounds = 0 }, false},
		{"round blocks 0", func(o *Options) { o.RoundBlocks = 0 }, false},
		{"fraction 0", func(o *Options) { o.Fraction = 0 }, false},
		{"fraction 1", func(o *Options) { o.Fraction = 1 }, true},
		{"fraction 1.01", func(o *Options) { o.Fraction = 1.01 }, false},
		{"negative validation delay", func(o *Options) { o.MeanValidation = -time.Nanosecond }, false},
		{"validation model 2", func(o *Options) { o.Validation = 2 }, false},
		{"adversary fraction 0", func(o *Options) { o.AdversaryFraction = 0 }, true},
		{"adversary fraction 1", func(o *Options) { o.AdversaryFraction = 1 }, false},
		{"capture threshold 1", func(o *Options) { o.CaptureThreshold = 1 }, true},
		{"capture threshold 1.5", func(o *Options) { o.CaptureThreshold = 1.5 }, false},
		{"negative workers", func(o *Options) { o.Workers = -3 }, true},
		{"negative lambda sources", func(o *Options) { o.LambdaSources = -1 }, false},
		{"negative observation window", func(o *Options) { o.ObservationWindow = -1 }, false},
		{"negative shards", func(o *Options) { o.Shards = -1 }, false},
		{"latency mode 3", func(o *Options) { o.LatencyMode = 3 }, false},
		{"negative block interval", func(o *Options) { o.BlockInterval = -time.Second }, false},
		{"trace level 3", func(o *Options) { o.TraceLevel = 3 }, false},
		{"negative counterfactual k", func(o *Options) { o.CounterfactualK = -1 }, false},
	} {
		o := ShortOptions()
		tc.set(&o)
		if err := Validate(o); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The one cross-field rule.
	o := ShortOptions()
	o.CounterfactualK = 2
	if err := Validate(o); err == nil {
		t.Error("counterfactual k without tracing accepted")
	}
	o.TraceLevel = 1
	if err := Validate(o); err != nil {
		t.Errorf("valid traced options rejected: %v", err)
	}
}

// TestApplyJSON: a patch overrides exactly the keys it names, in the wire
// format's units and spellings, and anything it cannot place is an error.
func TestApplyJSON(t *testing.T) {
	var patch map[string]json.RawMessage
	body := `{"nodes": 40, "seed": 18446744073709551615, "mean_validation_ms": 12.5,
		"validation": "exponential", "latency_mode": "streaming", "trace_level": "inputs",
		"block_interval_ms": 1500, "workers": 0}`
	if err := json.Unmarshal([]byte(body), &patch); err != nil {
		t.Fatal(err)
	}
	got := ShortOptions()
	got.Workers = 3
	if err := got.ApplyJSON(patch); err != nil {
		t.Fatal(err)
	}
	want := ShortOptions()
	want.Nodes, want.Seed = 40, 1<<64-1
	want.MeanValidation, want.Validation = 12500*time.Microsecond, ValidationExponential
	want.LatencyMode, want.TraceLevel, want.BlockInterval = latency.Streaming, 2, 1500*time.Millisecond
	if !reflect.DeepEqual(got, want) {
		t.Errorf("patched options\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{
		`{"nodez": 40}`,
		`{"trace_file": "/etc/passwd"}`,
		`{"record_trace": "x.json"}`,
		`{"validation": "gaussian"}`,
		`{"latency_mode": "psychic"}`,
		`{"trace_level": "verbose"}`,
		`{"trace_level": 1}`,
		`{"nodes": "forty"}`,
		`{"nodes": 40.5}`,
		`{"mean_validation_ms": "50ms"}`,
	} {
		patch = nil
		if err := json.Unmarshal([]byte(bad), &patch); err != nil {
			t.Fatal(err)
		}
		o := ShortOptions()
		if err := o.ApplyJSON(patch); err == nil {
			t.Errorf("patch %s accepted", bad)
		}
	}
}

// TestBindFlags: a flag overrides the base options only when it was given,
// so an explicit zero is honoured and an absent flag never clobbers.
func TestBindFlags(t *testing.T) {
	parse := func(args ...string) (Options, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		apply := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			return Options{}, err
		}
		o := ShortOptions()
		o.Workers = 3
		return o, apply(&o)
	}
	base := ShortOptions()
	base.Workers = 3
	if got, err := parse(); err != nil || !reflect.DeepEqual(got, base) {
		t.Errorf("no flags: %+v, %v; want the base options untouched", got, err)
	}
	got, err := parse("-seed", "0", "-nodes", "0", "-workers", "0", "-latency-mode", " streaming",
		"-trace-level", "decisions", "-block-interval", "1500ms", "-trace-file", "t.json")
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Seed, want.Nodes, want.Workers = 0, 0, 0
	want.LatencyMode, want.TraceLevel = latency.Streaming, 1
	want.BlockInterval, want.TraceFile = 1500*time.Millisecond, "t.json"
	if !reflect.DeepEqual(got, want) {
		t.Errorf("given flags\n got %+v\nwant %+v", got, want)
	}
	if err := Validate(got); err == nil {
		t.Error("-nodes 0 passed validation; an explicit zero must not mean the default")
	}
	if _, err := parse("-latency-mode", "psychic"); err == nil {
		t.Error("unknown -latency-mode spelling accepted")
	}
	if _, err := parse("-trace-level", "verbose"); err == nil {
		t.Error("unknown -trace-level spelling accepted")
	}
}
