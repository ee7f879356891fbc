package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"anykey"
	"anykey/internal/trace"
)

// setupFunc opens and warms one instance of a workload's system under test.
type setupFunc func(traced bool) (target, error)

func setupFor(o runOpts) (setupFunc, error) {
	switch o.workload {
	case "dev-read-lowvk", "dev-write-highvk":
		s := devSpecFor(o.workload, o.smoke)
		return func(traced bool) (target, error) {
			d, err := setupDev(s, o.seed, traced)
			if err != nil {
				return nil, err
			}
			return inproc{d}, nil
		}, nil
	case "fleet-batch":
		s := fleetSpecFor(o.smoke)
		return func(traced bool) (target, error) {
			f, err := setupFleet(s, o.seed, traced)
			if err != nil {
				return nil, err
			}
			return inproc{f}, nil
		}, nil
	case "srv-read", "srv-write-txn":
		return serverSetup(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// looper is an in-process system under test: the benchmark process is the
// process under test, and one goroutine drives it.
type looper interface {
	loop(seconds float64, m *measurement, rec *recorder) simWindow
	blame() *anykey.BlameReport
	opsPerRequest() int64
	close()
}

type inproc struct{ looper }

func (t inproc) measure(seconds float64, m *measurement, recs []*recorder) (simWindow, error) {
	var rec *recorder
	if len(recs) > 0 {
		rec = recs[0]
	}
	win := t.loop(seconds, m, rec)
	m.peakRSSMB = peakRSSMB(os.Getpid())
	// The program's own virtual-time attribution of the >= P99 tail, from
	// the tracers Options.Trace attached; nil on an untraced set-up.
	if rep := t.blame(); rep != nil {
		for c := trace.Cause(0); c < trace.NumCauses; c++ {
			m.layer["blame."+c.String()+"_share"] = rep.Share(c)
		}
	}
	return win, nil
}

func (t inproc) recorders(epoch time.Time) []*recorder { return []*recorder{newRecorder(epoch)} }

func (t inproc) close() error { t.looper.close(); return nil }

// profile samples the benchmark process's own CPU for the traced run.
func (t inproc) profile(path string, _ float64) (stop func() (map[string]float64, error), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		return reduceProfile(path, true)
	}, nil
}

// runTraced makes the traced run of a workload and the layer probes. A
// short untraced run on a fresh set-up comes first: it is the base of
// bench.trace_overhead_frac and, on in-process workloads, the second repeat
// the determinism guard compares the traced run's window against.
func runTraced(o runOpts, setup setupFunc) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	base := &measurement{layer: map[string]float64{}}
	var winA, winB simWindow
	err := withTarget(setup, false, func(t target) (err error) {
		winA, err = t.measure(o.seconds/4, base, nil)
		return err
	})
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}

	m := &measurement{layer: map[string]float64{}}
	var recs []*recorder
	var opsPerRequest int64
	err = withTarget(setup, true, func(t target) error {
		recs, opsPerRequest = t.recorders(time.Now()), t.opsPerRequest()
		stop, err := t.profile(filepath.Join(o.outDir, o.workload+".cpu.pprof"), o.seconds)
		if err != nil {
			return err
		}
		winB, err = t.measure(o.seconds, m, recs)
		shares, perr := stop() // also when the run failed: it ends the sampling
		if err != nil {
			return err
		}
		if perr != nil {
			return fmt.Errorf("cpu profile: %w", perr)
		}
		for b, v := range shares {
			m.layer["cpu."+b+"_share"] = v
		}
		return nil
	})
	if err != nil {
		return result{}, fmt.Errorf("%s: traced: %w", o.workload, err)
	}

	m.attempted += base.attempted
	m.failed += base.failed
	m.notes = append(base.notes, m.notes...)
	guard(winA, winB, m)
	for k, v := range winB {
		m.layer[k] = v
	}
	spanLayer(m.layer, recs, opsPerRequest)
	m.layer["bench.trace_overhead_frac"] = 1 - ratio(m.opsPerS, base.opsPerS)
	m.layer["bench.read_samples"] = float64(len(m.readNs))
	m.layer["bench.write_samples"] = float64(len(m.writeNs))
	path, err := writeSpans(o.outDir, o.workload, recs)
	if err != nil {
		return result{}, err
	}
	o.logf("spans: %s", path)

	runProbes(m.layer, o.smoke)
	report(o, m)
	return render(perLayer, m.layer, m), nil
}

// guard is the determinism check: two repeats of an in-process workload at
// one seed must agree exactly on every simulated result and work count of
// the fixed window. A disagreement is a failure that names the metric.
func guard(a, b simWindow, m *measurement) {
	if a == nil {
		return // server workloads have no fixed window
	}
	for _, k := range exactLayer {
		if a[k] != b[k] {
			m.fail("determinism: %s differs between repeats at one seed: %v vs %v", k, a[k], b[k])
		}
	}
}

// spanLayer turns the recorded spans into per-op self times. Each traced
// request covers opsPerRequest operations.
func spanLayer(layer map[string]float64, recs []*recorder, opsPerRequest int64) {
	var requests int64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.parent < 0 {
				requests++
			}
		}
	}
	ops := float64(requests * opsPerRequest)
	self := selfTimes(recs)
	for span, name := range map[string]string{
		"bench.gen": "bench.gen_ns_per_op", "bench.submit": "bench.submit_ns_per_op",
		"bench.verify": "bench.verify_ns_per_op", "bench.op": "bench.self_ns_per_op",
		"client.encode": "client.encode_ns_per_op", "client.wait": "client.wait_ns_per_op",
		"client.parse": "client.parse_ns_per_op",
	} {
		layer[name] = ratio(float64(self[span]), ops)
	}
}
