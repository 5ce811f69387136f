// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics of BENCHMARK.json with tracing off, and its per-layer
// metrics from a traced run. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var cfg runConfig
	var trace, seconds int
	name := flag.String("workload", "", "workload to run; empty runs the suite, each workload in its own process")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 0, "BENCHMARK.json's run_seconds, recorded in the header; a workload's size is fixed")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the tests")
	jsonOut := flag.String("json", "", "suite only: also write the whole result set to this file")
	commit := flag.String("commit", "unknown", "suite only: the commit to record in that file")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "" {
		os.Exit(runSuite(cfg, seconds, *jsonOut, *commit))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := execute(cfg, seconds, w, trace == 1, os.Stdout)
	if err != nil {
		// No result line: the run could not be measured.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload once and prints its metrics and result line to
// w. The traced run also leaves its spans in out/trace-<workload>.json.
func execute(cfg runConfig, seconds int, w benchWorkload, traced bool, out io.Writer) (jsonResult, error) {
	if traced {
		cfg.rec = newRecorder()
	}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%d traced=%t smoke=%t nproc=%d gomaxprocs=%d %s\n",
		w.name, cfg.seed, seconds, traced, cfg.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	k := newKernel()
	passes := k.timePasses(nil)
	o := newOutcome()
	if err := w.run(cfg, o); err != nil {
		return jsonResult{}, err
	}
	speed := machineSpeed(k.timePasses(passes))
	if traced {
		path := filepath.Join("out", "trace-"+w.name+".json")
		if err := cfg.rec.dump(path, w.name, cfg.seed); err != nil {
			return jsonResult{}, err
		}
		o.note("%d spans written to benchmark/%s", len(cfg.rec.spans), path)
		o.set("bench.machine_speed_x", speed)
	} else {
		o.set("peak_rss_mb", peakRSSMB())
		o.note("machine_speed_x=%s", formatValue(speed))
	}
	return o.report(out, traced), nil
}
