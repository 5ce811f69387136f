package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// suiteRun is one child process's result line with what identifies it.
type suiteRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	jsonResult
}

// suiteFile is what -json writes: one untraced and one traced result per
// workload, and where they were measured. The commit is the caller's word
// (-commit): run.sh builds without VCS stamping, which would fail the build
// wherever git cannot read the checkout.
type suiteFile struct {
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Go         string     `json:"go"`
	Commit     string     `json:"commit"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Smoke      bool       `json:"smoke,omitempty"`
	Runs       []suiteRun `json:"runs"`
}

// runSuite runs every workload untraced and then traced, each in a process
// of its own so that peak RSS and collector state do not carry over, and
// returns the exit code: 1 when any run failed a check or did not finish.
func runSuite(cfg runConfig, seconds int, jsonOut, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	file := suiteFile{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Seconds: seconds, Smoke: cfg.smoke}
	fmt.Printf("# suite nproc=%d gomaxprocs=%d %s commit=%s\n", file.NProc, file.GOMAXPROCS, file.Go, file.Commit)
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to exit
			os.Stdout.Write(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.name, trace, err)
				code = 1
			}
			run := suiteRun{Workload: w.name, Trace: trace}
			if json.Unmarshal(lastLine(out), &run.jsonResult) == nil {
				file.Runs = append(file.Runs, run)
			}
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", jsonOut, err)
			return 1
		}
	}
	return code
}

func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	return out[bytes.LastIndexByte(out, '\n')+1:]
}
