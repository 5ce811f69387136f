package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagNamesGolden pins the whole command line, perigee-sim's own
// switches and the flags derived from the option descriptors alike.
func TestFlagNamesGolden(t *testing.T) {
	want := []string{
		"adversary", "adversary-frac", "all", "block-interval",
		"counterfactual-k", "cpuprofile", "json", "lambda-sources", "list",
		"memprofile", "nodes", "obs-window", "out", "quick", "record-trace",
		"rounds", "scenario", "seed", "trace-file", "trace-level", "trials",
		"workers",
	}
	fs := flag.NewFlagSet("perigee-sim", flag.ContinueOnError)
	bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags\n got %q\nwant %q", got, want)
	}
}
