package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteRun is one run of the suite as stored in the results file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// suiteFile is what `bench` writes and `bench compare` reads.
type suiteFile struct {
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// suiteMain runs every workload untraced once per seed, then traced once,
// each as a child process of its own so that peak_rss_mb is that run's.
func suiteMain(seedList string, seconds float64, out string) int {
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad --seeds %q: %v\n", seedList, err)
			return 2
		}
		seeds = append(seeds, n)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := suiteFile{Seconds: seconds}
	ok := true
	one := func(w string, seed int64, trace int) {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: no result (%v)\n%s", w, seed, trace, runErr, stdout)
			ok = false
			return
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		ok = ok && res.Correct
		file.Runs = append(file.Runs, suiteRun{w, seed, trace, res})
	}
	for _, w := range workloads {
		for _, seed := range seeds {
			one(w.Name, seed, 0)
		}
		one(w.Name, seeds[0], 1)
	}
	file.print()
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, _ := json.MarshalIndent(file, "", " ")
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("results:", out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a run failed or reported incorrect outputs")
		return 1
	}
	return 0
}

// values returns the metric's value in each matching run of the file.
func (f suiteFile) values(workload, metric string, trace int) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Result.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// print renders every metric by name with its unit: end-to-end medians
// over the untraced repeats, then the traced run's per-layer numbers.
func (f suiteFile) print() {
	fmt.Printf("\n%-32s", "end-to-end (median of repeats)")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.Name)
	}
	fmt.Println()
	table := func(defs []metricDef, trace int) {
		for _, d := range defs {
			fmt.Printf("%-26s %-5s", d.Name, d.Unit)
			for _, w := range workloads {
				fmt.Printf(" %16.6g", median(f.values(w.Name, d.Name, trace)))
			}
			fmt.Println()
		}
	}
	table(endToEnd, 0)
	fmt.Printf("\n%-32s\n", "per-layer (traced run and probes)")
	table(perLayer, 1)
	fmt.Println()
}
