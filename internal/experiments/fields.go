package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// field is the one definition of an Options field outside the struct
// itself: how it enters the canonical hash, how a JSON patch and a command
// line name it, and which values it accepts. Options.Hash, the range half
// of Validate, Options.ApplyJSON and BindFlags walk the fields table and
// contain no per-field code, so adding an option is the struct field plus
// its row here.
type field struct {
	// name is the Options struct field.
	name string
	// hash is the field's key in the canonical hash. Empty marks a
	// result-neutral field the hash leaves out.
	hash string
	// json is the field's key in a JSON patch (the experiment service's
	// wire format). Empty means a network client cannot set it.
	json string
	// unit, for a duration field, is what 1.0 in a JSON patch is worth;
	// the key carries the matching suffix.
	unit time.Duration
	// flag and help are the field's perigee-sim flag. An empty flag means
	// the command line cannot set it.
	flag, help string
	// rng is the interval of valid values in mathematical notation,
	// durations in nanoseconds. Empty accepts anything.
	rng string
	// enum lists an enumeration's spellings by value; JSON patches and
	// flags use them, and only the listed values are valid.
	enum []string
}

// fields describes every configuration field of Options, in hash order; the
// runtime hooks (RoundObserver, TraceObserver) have no row.
//
// Workers is the one result-neutral field: it only schedules goroutines and
// results are bit-for-bit identical at any worker count, so runs differing
// only in Workers share a hash (and therefore a cache entry). TraceFile and
// RecordTrace are side-effecting (they read and write files) and
// TraceLevel/CounterfactualK change the Regret section of the result, so
// all four are hashed; the two paths are not patchable because a network
// client has no business naming server-side files.
var fields = []field{
	{name: "Nodes", hash: "nodes", json: "nodes", rng: "[20,inf)",
		flag: "nodes", help: "override network size"},
	{name: "Trials", hash: "trials", json: "trials", rng: "[1,inf)",
		flag: "trials", help: "override trial count"},
	{name: "Rounds", hash: "rounds", json: "rounds", rng: "[1,inf)",
		flag: "rounds", help: "override Perigee round count"},
	{name: "RoundBlocks", hash: "roundblocks", json: "round_blocks", rng: "[1,inf)"},
	{name: "Fraction", hash: "fraction", json: "fraction", rng: "(0,1]"},
	{name: "Seed", hash: "seed", json: "seed",
		flag: "seed", help: "override root seed"},
	{name: "MeanValidation", hash: "meanvalidation", json: "mean_validation_ms", unit: time.Millisecond, rng: "[0,inf)"},
	{name: "Validation", hash: "validation", json: "validation", enum: []string{"fixed", "exponential"}},
	{name: "AdversaryFraction", hash: "adversaryfraction", json: "adversary_fraction", rng: "[0,1)",
		flag: "adversary-frac", help: "population share under adversary control in adversarial scenarios (0 = default 0.15)"},
	{name: "CaptureThreshold", hash: "capturethreshold", json: "capture_threshold", rng: "[0,1]"},
	{name: "Workers", json: "workers",
		flag: "workers", help: "worker goroutines for trials/broadcasts (0 = all cores; results are identical for any value)"},
	{name: "LambdaSources", hash: "lambdasources", json: "lambda_sources", rng: "[0,inf)",
		flag: "lambda-sources", help: "evaluate λ from this many landmark sources instead of all nodes (0 = all; the scale scenario defaults to 64)"},
	{name: "ObservationWindow", hash: "observationwindow", json: "observation_window", rng: "[0,inf)",
		flag: "obs-window", help: "bound per-node observation memory to the last N blocks of each round (0 = dense)"},
	{name: "Shards", hash: "shards", json: "shards", rng: "[0,inf)",
		flag: "shards", help: "run each broadcast as a conservative parallel simulation over N node shards (0/1 = unsharded; results are identical for any value)"},
	{name: "LatencyMode", hash: "latencymode", json: "latency_mode", enum: []string{"auto", "precomputed", "streaming"},
		flag: "latency-mode", help: "edge-delay evaluation: auto, precomputed, or streaming (auto keeps a per-edge delay array below 1M nodes)"},
	{name: "BlockInterval", hash: "blockinterval", json: "block_interval_ms", unit: time.Millisecond, rng: "[0,inf)",
		flag: "block-interval", help: "mean block inter-arrival time for the forks workload scenario (0 = default 2s)"},
	{name: "TraceFile", hash: "tracefile",
		flag: "trace-file", help: "replay a recorded arrival trace in the forks scenario instead of generating one (requires -trials 1)"},
	{name: "RecordTrace", hash: "recordtrace",
		flag: "record-trace", help: "write the forks scenario's trial-0 arrival trace to this JSON file for later -trace-file replay"},
	{name: "TraceLevel", hash: "tracelevel", json: "trace_level", enum: []string{"off", "decisions", "inputs"},
		flag: "trace-level", help: "decision tracing: off, decisions, or inputs (adds per-round regret tables to traced reports)"},
	{name: "CounterfactualK", hash: "counterfactualk", json: "counterfactual_k", rng: "[0,inf)",
		flag: "counterfactual-k", help: "counterfactually re-score this many dropped alternatives per decision (requires -trace-level)"},
}

// in returns the field's value inside o, settable.
func (f field) in(o *Options) reflect.Value {
	return reflect.ValueOf(o).Elem().FieldByName(f.name)
}

// parse returns the value an enumeration spells s; the empty string is
// the zero value, as an absent key or flag is.
func (f field) parse(s string) (int64, error) {
	for i, name := range f.enum {
		if s == name || s == "" && i == 0 {
			return int64(i), nil
		}
	}
	return 0, fmt.Errorf("unknown value %q (want %s)", s, strings.Join(f.enum, ", "))
}

// check applies the field's range, or its list of enumerated values, to v.
func (f field) check(v reflect.Value) error {
	if f.enum != nil {
		if i := v.Int(); i < 0 || i >= int64(len(f.enum)) {
			return fmt.Errorf("experiments: %s %d is not one of %s", f.name, i, strings.Join(f.enum, ", "))
		}
		return nil
	}
	if f.rng == "" {
		return nil
	}
	var x float64
	switch v.Kind() {
	case reflect.Float64:
		x = v.Float()
	case reflect.Uint64:
		x = float64(v.Uint())
	default:
		x = float64(v.Int())
	}
	lo, hi, err := parseInterval(f.rng)
	if err != nil {
		panic(fmt.Sprintf("experiments: field %s: %v", f.name, err))
	}
	if x < lo || x > hi || x == lo && f.rng[0] == '(' || x == hi && f.rng[len(f.rng)-1] == ')' {
		return fmt.Errorf("experiments: %s %v outside %s", f.name, v.Interface(), f.rng)
	}
	return nil
}

// parseInterval reads the endpoints of "[lo,hi]" in any mix of open and
// closed brackets.
func parseInterval(s string) (lo, hi float64, err error) {
	l, h, ok := strings.Cut(strings.Trim(s, "[]()"), ",")
	if !ok || len(s) < 2 || !strings.ContainsRune("[(", rune(s[0])) || !strings.ContainsRune("])", rune(s[len(s)-1])) {
		return 0, 0, fmt.Errorf("malformed interval %q", s)
	}
	if lo, err = strconv.ParseFloat(l, 64); err != nil {
		return 0, 0, err
	}
	hi, err = strconv.ParseFloat(h, 64)
	return lo, hi, err
}

// Hash returns the canonical content hash of the options: a hex SHA-256
// over an explicit versioned encoding of every result-determining field.
// The experiment service keys its result cache on Scenario ID + Hash, so
// the encoding leaves out what cannot change a result: the fields whose
// descriptor has no hash key, and the runtime hooks.
func (o Options) Hash() string {
	h := sha256.New()
	fmt.Fprint(h, "perigee-options-v2")
	for _, f := range fields {
		if f.hash == "" {
			continue
		}
		switch v := f.in(&o); v.Kind() {
		case reflect.String:
			fmt.Fprintf(h, "|%s=%q", f.hash, v.String())
		case reflect.Float64:
			fmt.Fprintf(h, "|%s=%g", f.hash, v.Float())
		case reflect.Uint64:
			fmt.Fprintf(h, "|%s=%d", f.hash, v.Uint())
		default:
			fmt.Fprintf(h, "|%s=%d", f.hash, v.Int())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ApplyJSON overrides the fields a JSON patch names, leaving the rest of o
// alone. Durations are given in the unit their key names, enumerations by
// their spelling; a key no field answers to is an error.
func (o *Options) ApplyJSON(patch map[string]json.RawMessage) error {
	keys := make([]string, 0, len(patch))
	for key := range patch {
		keys = append(keys, key)
	}
	sort.Strings(keys)
next:
	for _, key := range keys {
		for _, f := range fields {
			if f.json != key || key == "" {
				continue
			}
			if err := f.setJSON(f.in(o), patch[key]); err != nil {
				return fmt.Errorf("experiments: option %q: %w", key, err)
			}
			continue next
		}
		return fmt.Errorf("experiments: unknown option %q", key)
	}
	return nil
}

func (f field) setJSON(v reflect.Value, raw json.RawMessage) error {
	switch {
	case f.enum != nil:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		i, err := f.parse(s)
		if err != nil {
			return err
		}
		v.SetInt(i)
	case f.unit != 0:
		var x float64
		if err := json.Unmarshal(raw, &x); err != nil {
			return err
		}
		v.SetInt(int64(x * float64(f.unit)))
	default:
		return json.Unmarshal(raw, v.Addr().Interface())
	}
	return nil
}

// BindFlags registers a flag on fs for every field that has one and
// returns the function to call after fs is parsed: it copies the flags
// that were given on the command line, and no others, onto o — the
// semantics of a JSON patch, so an explicit zero is an override like any
// other value.
func BindFlags(fs *flag.FlagSet) (apply func(o *Options) error) {
	var given Options
	spelled := make(map[string]*string)
	for _, f := range fields {
		if f.flag == "" {
			continue
		}
		if f.enum != nil {
			spelled[f.flag] = fs.String(f.flag, f.enum[0], f.help)
			continue
		}
		switch p := f.in(&given).Addr().Interface().(type) {
		case *int:
			fs.IntVar(p, f.flag, 0, f.help)
		case *uint64:
			fs.Uint64Var(p, f.flag, 0, f.help)
		case *float64:
			fs.Float64Var(p, f.flag, 0, f.help)
		case *time.Duration:
			fs.DurationVar(p, f.flag, 0, f.help)
		case *string:
			fs.StringVar(p, f.flag, "", f.help)
		default:
			panic(fmt.Sprintf("experiments: field %s: no flag type for %T", f.name, p))
		}
	}
	return func(o *Options) error {
		var err error
		fs.Visit(func(set *flag.Flag) {
			for _, f := range fields {
				if f.flag != set.Name || err != nil {
					continue
				}
				if s, ok := spelled[f.flag]; ok {
					var i int64
					if i, err = f.parse(strings.TrimSpace(*s)); err != nil {
						err = fmt.Errorf("-%s: %w", f.flag, err)
						return
					}
					f.in(o).SetInt(i)
					return
				}
				f.in(o).Set(f.in(&given))
			}
		})
		return err
	}
}
