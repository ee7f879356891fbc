// Command bench is the repository's benchmark: five closed-loop workloads
// measured on the wall clock from outside the program, a traced run per
// workload for the per-layer numbers, and a ladder of layer probes. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	bench [--seeds 1,2,3] [--seconds S] [--out F]         the whole suite, results into F
//	bench compare A.json B.json                           verdict per (metric, workload)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "wall seconds one run measures")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the probes")
		seeds    = flag.String("seeds", "1,2,3", "suite: seeds of the untraced repeats")
		out      = flag.String("out", filepath.Join("bench", "out", "suite.json"), "suite: where the results go")
	)
	flag.Parse()
	if *workload == "" {
		os.Exit(suiteMain(*seeds, *seconds, *out))
	}
	res, err := runOne(runOpts{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn != 0,
		outDir: filepath.Join("bench", "out"), log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(res.jsonLine())
	if !res.Correct {
		os.Exit(1)
	}
}

// target is a set-up system under test that the shared run logic drives.
type target interface {
	// measure runs the closed loop for at least the given wall seconds and
	// returns the fixed-window simulated results (nil on server workloads,
	// whose work counts go straight into the measurement's layer map). The
	// layer map also gets the program's own tail blame when it traces.
	measure(seconds float64, m *measurement, rec []*recorder) (simWindow, error)
	// profile samples the CPU of the process under test until stop, which
	// returns the flat self-time share of each cpuBuckets entry.
	profile(path string, seconds float64) (stop func() (map[string]float64, error), err error)
	opsPerRequest() int64
	recorders(epoch time.Time) []*recorder
	close() error
}

// withTarget sets a target up, hands it to fn and closes it whatever fn
// returns, so no child process outlives a failed run.
func withTarget(setup setupFunc, traced bool, fn func(target) error) error {
	t, err := setup(traced)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := fn(t); err != nil {
		t.close()
		return err
	}
	return t.close()
}

// runOne performs one run of one workload.
func runOne(o runOpts) (result, error) {
	setup, err := setupFor(o)
	if err != nil {
		return result{}, err
	}
	if o.trace {
		return runTraced(o, setup)
	}
	m := &measurement{layer: map[string]float64{}}
	for i := 1; i <= setupRepeats; i++ {
		start := time.Now()
		err := withTarget(setup, false, func(t target) error {
			m.setupS = append(m.setupS, time.Since(start).Seconds())
			if i < setupRepeats {
				return nil // set up only to time it
			}
			_, err := t.measure(o.seconds, m, nil)
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
		// Collect the closed set-up now, so that how much of it is still
		// on the heap does not decide the next one's peak_rss_mb.
		runtime.GC()
	}
	report(o, m)
	return render(endToEnd, m.endToEndMetrics(), m), nil
}

// report prints the human-readable summary that precedes the result line.
func report(o runOpts, m *measurement) {
	o.logf("%s seed=%d: %d ops attempted, %d failed, %.0f ops/s; samples: wall_read=%d wall_write=%d",
		o.workload, o.seed, m.attempted, m.failed, m.opsPerS, len(m.readNs), len(m.writeNs))
	for _, n := range m.notes {
		o.logf("  FAIL %s", n)
	}
}
