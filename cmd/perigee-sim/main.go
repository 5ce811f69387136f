// Command perigee-sim runs registered scenarios — the paper's figures,
// the §6 extension studies, and the ablation sweeps — from the command
// line.
//
//	perigee-sim -list
//	perigee-sim -scenario figure3a -quick
//	perigee-sim -scenario figure3a -nodes 1000 -trials 3 -rounds 30
//	perigee-sim -scenario figure1 -quick -json
//	perigee-sim -all -quick -out results.md
//	perigee-sim -adversary withholding -adversary-frac 0.2 -quick
//	perigee-sim -scenario forks -quick -block-interval 1s -record-trace trace.json
//	perigee-sim -scenario figure3a -quick -trace-level decisions -counterfactual-k 3
//	perigee-sim -scenario figure3a -quick -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/perigee-net/perigee/internal/experiments"
)

// cli is perigee-sim's command line.
type cli struct {
	list, all, quick, asJSON bool
	scenario, adversary, out string
	cpuProfile, memProfile   string
	// applyOptions overrides base options with the option flags given.
	applyOptions func(*experiments.Options) error
}

// bind registers perigee-sim's flags on fs: its own switches, then one
// flag per experiments.Options field that has one. Like a JSON patch, an
// option flag overrides the base options only when it is given.
func bind(fs *flag.FlagSet) *cli {
	c := &cli{}
	fs.BoolVar(&c.list, "list", false, "list the scenario registry and exit")
	fs.StringVar(&c.scenario, "scenario", "", "scenario ID to run (see -list); comma-separate for several")
	fs.BoolVar(&c.all, "all", false, "run every registered scenario")
	fs.BoolVar(&c.quick, "quick", false, "use the scaled-down (300-node) configuration")
	fs.StringVar(&c.adversary, "adversary", "", "run the adversary-<name> scenario for a built-in strategy (latency-liar, withholding, sybil-flood, eclipse-bias, partition)")
	fs.BoolVar(&c.asJSON, "json", false, "emit results as JSON instead of the text report")
	fs.StringVar(&c.out, "out", "", "also append rendered results to this file")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the scenario runs to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile, taken after the last scenario, to this file")
	c.applyOptions = experiments.BindFlags(fs)
	return c
}

// startProfiles starts the CPU profile and returns the function that, on
// the way out, stops it and writes the heap profile. Either file name may
// be empty.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		mem, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile shows what is live, not what is waiting to be collected
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}

func main() { os.Exit(run()) }

// run is main returning its exit status, so that deferred work — closing
// the -out file, writing the profiles — happens on every way out.
func run() (status int) {
	c := bind(flag.CommandLine)
	flag.Parse()

	if c.list {
		for _, s := range experiments.Scenarios() {
			fmt.Printf("  %-26s %s\n", s.ID, s.Brief)
		}
		return 0
	}

	opt := experiments.DefaultOptions()
	if c.quick {
		opt = experiments.ShortOptions()
	}
	if err := c.applyOptions(&opt); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	selected := c.scenario
	if c.adversary != "" {
		id := "adversary-" + strings.TrimSpace(c.adversary)
		if selected != "" {
			selected += "," + id
		} else {
			selected = id
		}
	}
	var ids []string
	switch {
	case c.all:
		ids = experiments.IDs()
	case selected != "":
		ids = strings.Split(selected, ",")
	default:
		fmt.Fprintln(os.Stderr, "need -scenario <id>, -adversary <name>, -all, or -list")
		flag.Usage()
		return 2
	}

	// Fail fast: validate the whole invocation — every scenario ID, the
	// resolved option set, and the flag combinations — before any trial
	// runs, so a typo in the third scenario of a multi-hour sweep does not
	// surface after the first two finished.
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	for _, id := range ids {
		if _, err := experiments.Describe(id); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 2
		}
	}
	if opt.TraceFile != "" && opt.Trials != 1 {
		fmt.Fprintf(os.Stderr, "-trace-file replays one recorded workload and requires -trials 1 (resolved trials: %d)\n", opt.Trials)
		return 2
	}
	if (opt.TraceFile != "" || opt.RecordTrace != "") && len(ids) > 1 {
		fmt.Fprintln(os.Stderr, "-trace-file/-record-trace apply to a single scenario; drop -all or the extra -scenario IDs")
		return 2
	}
	if err := experiments.Validate(opt); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	var sink *os.File
	if c.out != "" {
		f, err := os.OpenFile(c.out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening %s: %v\n", c.out, err)
			return 1
		}
		defer f.Close()
		sink = f
	}

	stopProfiles, err := startProfiles(c.cpuProfile, c.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starting profile: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "writing profile: %v\n", err)
			status = 1
		}
	}()

	for _, id := range ids {
		start := time.Now()
		startCPU, _ := usage()
		res, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s: %v\n", id, err)
			return 1
		}
		if c.asJSON {
			buf, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "scenario %s: encoding JSON: %v\n", id, err)
				return 1
			}
			fmt.Println(string(buf))
		} else {
			cpu, peakMB := usage()
			fmt.Printf("%s(completed in %v, %.1f s CPU, peak RSS %.0f MB)\n\n", res.Render(),
				time.Since(start).Round(time.Second), (cpu - startCPU).Seconds(), peakMB)
		}
		if sink != nil {
			if c.asJSON {
				// NDJSON: one compact document per line, so the file stays
				// machine-parseable for any number of scenarios and appended
				// runs — json.load works on a single-scenario file, and line
				// iteration works on multi-scenario sweeps. (The file used to
				// concatenate indented objects, which no JSON parser accepts
				// once a second scenario lands.)
				line, err := json.Marshal(res)
				if err != nil {
					fmt.Fprintf(os.Stderr, "scenario %s: encoding JSON: %v\n", id, err)
					return 1
				}
				fmt.Fprintf(sink, "%s\n", line)
			} else {
				fmt.Fprintf(sink, "```\n%s```\n\n", res.Render())
			}
		}
	}
	return 0
}

// usage reads the CPU time the process has used so far, user plus system,
// and its peak resident set in MB from getrusage, as the benchmark does.
func usage() (time.Duration, float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KB
}
