package harness

import (
	"fmt"
	"slices"
	"testing"

	"anykey"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/workload"
)

// TestRetryPolicyDelay pins the capped exponential backoff schedule the
// committed storm report was generated under.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxRetries: 5, Backoff: 500 * sim.Microsecond, MaxBackoff: 4 * sim.Millisecond}
	want := []anykey.Duration{
		500 * sim.Microsecond, // attempt 1
		sim.Millisecond,       // attempt 2
		2 * sim.Millisecond,   // attempt 3
		4 * sim.Millisecond,   // attempt 4
		4 * sim.Millisecond,   // attempt 5: capped
	}
	for k, w := range want {
		if got := p.delay(k + 1); got != w {
			t.Errorf("delay(%d) = %v, want %v", k+1, got, w)
		}
	}
	if got := p.delay(0); got != 0 {
		t.Errorf("delay(0) = %v, want 0", got)
	}
}

// slowTarget completes every attempt a fixed service time after it arrives
// and records the submission instants, so a test can pin the exact re-entry
// schedule of the retry protocol.
type slowTarget struct {
	service anykey.Duration
	at      []anykey.Time
}

func (s *slowTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	s.at = append(s.at, rel)
	return openDone{doneRel: rel.Add(s.service)}, nil
}

// TestOpenLoopRetryReentry pins the re-entry times of a timed-out
// operation: with a 10ms client deadline and 500µs..4ms doubling backoff,
// an attempt arriving at t re-enters at t+10.5ms, then +10ms+1ms, then
// +10ms+2ms, and is dropped after the third retry. The schedule is virtual
// time arithmetic, so it must reproduce exactly.
func TestOpenLoopRetryReentry(t *testing.T) {
	cfg := BaseConfig{
		Workload: mustSpec("ZippyDB").WithArrival(
			workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 1000}),
		MaxOps:   1, // one fresh arrival, then drain the retries
		NoVerify: true,
		Seed:     1,
		Timeout:  10 * sim.Millisecond,
		Retry:    RetryPolicy{MaxRetries: 3, Backoff: 500 * sim.Microsecond, MaxBackoff: 4 * sim.Millisecond},
		SLO:      2 * sim.Millisecond,
		Horizon:  sim.Second,
	}
	gen, err := workload.NewGenerator(cfg.Workload, workload.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	tgt := &slowTarget{service: 15 * sim.Millisecond} // every attempt misses the deadline
	loop := openLoop{cfg: &cfg, gen: gen, tgt: tgt, hists: testHists()}
	st, err := loop.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.at) != 4 {
		t.Fatalf("expected 4 attempts (1 fresh + 3 retries), got %d at %v", len(tgt.at), tgt.at)
	}
	t0 := tgt.at[0]
	want := []anykey.Time{
		t0,
		t0.Add(10*sim.Millisecond + 500*sim.Microsecond),
		t0.Add(10*sim.Millisecond + 500*sim.Microsecond).Add(10*sim.Millisecond + sim.Millisecond),
		t0.Add(10*sim.Millisecond + 500*sim.Microsecond).Add(10*sim.Millisecond + sim.Millisecond).Add(10*sim.Millisecond + 2*sim.Millisecond),
	}
	for i, w := range want {
		if tgt.at[i] != w {
			t.Errorf("attempt %d submitted at %v, want %v", i, tgt.at[i], w)
		}
	}
	if st.Offered != 1 || st.Attempts != 4 || st.Timeouts != 4 || st.Retries != 3 ||
		st.Dropped != 1 || st.Completed != 0 || st.GoodOps != 0 {
		t.Errorf("stats %+v: want offered=1 attempts=4 timeouts=4 retries=3 dropped=1 completed=0", st)
	}
}

func testHists() openHists {
	return openHists{read: &stats.Histogram{}, write: &stats.Histogram{}, scan: &stats.Histogram{}}
}

// scriptedTarget is a fake openTarget: outcome decides the n-th submission,
// and every submission is recorded (and logged, when a test shares a log
// with the loop's per-event hook).
type scriptedTarget struct {
	outcome func(n int, rel anykey.Time, op workload.Op) openDone
	at      []anykey.Time
	log     *[]string
}

func (s *scriptedTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	n := len(s.at)
	s.at = append(s.at, rel)
	if s.log != nil {
		*s.log = append(*s.log, fmt.Sprintf("submit@%d", rel))
	}
	return s.outcome(n, rel, op), nil
}

// TestOpenLoopScriptedTarget drives the one event loop with a scripted
// target through what only a replicated cluster produces for real — failed
// attempts — and through the taint rule and the per-event hook.
func TestOpenLoopScriptedTarget(t *testing.T) {
	const (
		timeout = 10 * sim.Millisecond
		service = 100 * sim.Microsecond
	)
	base := func(maxOps int64) BaseConfig {
		return BaseConfig{
			Workload: mustSpec("ZippyDB").WithArrival(
				workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 1000}),
			MaxOps:     maxOps,
			WriteRatio: 0.5,
			Seed:       1,
			Timeout:    timeout,
			Retry:      RetryPolicy{MaxRetries: 3, Backoff: 500 * sim.Microsecond, MaxBackoff: 4 * sim.Millisecond},
			SLO:        2 * sim.Millisecond,
			Horizon:    sim.Second,
		}
	}
	ok := func(rel anykey.Time) openDone { return openDone{doneRel: rel.Add(service)} }
	genCfg := workload.Config{Population: 64, Theta: 0.99, WriteRatio: 0.5, Seed: 1}
	// spoilID is the first key of the 400-op stream that is put and read
	// again later, found on a twin of the run's generator.
	spoilID := func() uint64 {
		twin, err := workload.NewGenerator(base(0).Workload, genCfg)
		if err != nil {
			t.Fatal(err)
		}
		put := map[uint64]bool{}
		for i := 0; i < 400; i++ {
			switch op := twin.Next(); {
			case op.Kind == workload.OpPut:
				put[op.ID] = true
			case put[op.ID]:
				return op.ID
			}
		}
		t.Fatal("no key is put and then read in the stream")
		return 0
	}()
	// taintFirstPut spoils the first put of spoilID with verdict and from
	// then on serves garbage for that key; every other read gets the payload
	// the generator expects. It counts the reads it served each way.
	type taintCounts struct{ clean, spoiled int64 }
	taintFirstPut := func(gen *workload.Generator, verdict func(anykey.Time) openDone, c *taintCounts) func(int, anykey.Time, workload.Op) openDone {
		spoiled := false
		return func(_ int, rel anykey.Time, op workload.Op) openDone {
			switch {
			case op.Kind == workload.OpPut && op.ID == spoilID && !spoiled:
				spoiled = true
				return verdict(rel)
			case op.Kind == workload.OpGet && op.ID == spoilID && spoiled:
				c.spoiled++
				d := ok(rel)
				d.value = []byte("not the payload")
				return d
			case op.Kind == workload.OpGet:
				c.clean++
				d := ok(rel)
				d.value = gen.ExpectedValue(op.ID)
				return d
			}
			return ok(rel)
		}
	}

	for _, tc := range []struct {
		name    string
		maxOps  int64
		outcome func(gen *workload.Generator, c *taintCounts) func(int, anykey.Time, workload.Op) openDone
		check   func(t *testing.T, st *OpenStats, l *openLoop, tgt *scriptedTarget, c *taintCounts)
		wantErr bool
	}{
		{
			name: "fail-then-succeed re-enters at Timeout+delay(k)", maxOps: 1,
			outcome: func(*workload.Generator, *taintCounts) func(int, anykey.Time, workload.Op) openDone {
				return func(n int, rel anykey.Time, _ workload.Op) openDone {
					if n < 2 {
						return openDone{failed: true}
					}
					return ok(rel)
				}
			},
			check: func(t *testing.T, st *OpenStats, _ *openLoop, tgt *scriptedTarget, _ *taintCounts) {
				t0 := tgt.at[0]
				want := []anykey.Time{t0, t0.Add(timeout + 500*sim.Microsecond),
					t0.Add(timeout + 500*sim.Microsecond).Add(timeout + sim.Millisecond)}
				if !slices.Equal(tgt.at, want) {
					t.Errorf("submissions at %v, want %v", tgt.at, want)
				}
				if st.Attempts != 3 || st.ReadFailures+st.WriteFailures != 2 || st.Retries != 2 ||
					st.Timeouts != 0 || st.Completed != 1 || st.Dropped != 0 {
					t.Errorf("stats %+v: want attempts=3 failures=2 retries=2 timeouts=0 completed=1 dropped=0", *st)
				}
			},
		},
		{
			name: "failure past MaxRetries is dropped", maxOps: 1,
			outcome: func(*workload.Generator, *taintCounts) func(int, anykey.Time, workload.Op) openDone {
				return func(int, anykey.Time, workload.Op) openDone { return openDone{failed: true} }
			},
			check: func(t *testing.T, st *OpenStats, _ *openLoop, _ *scriptedTarget, _ *taintCounts) {
				if st.Attempts != 4 || st.ReadFailures+st.WriteFailures != 4 || st.Retries != 3 ||
					st.Dropped != 1 || st.Completed != 0 {
					t.Errorf("stats %+v: want attempts=4 failures=4 retries=3 dropped=1 completed=0", *st)
				}
			},
		},
		{
			name: "a failed put taints its key", maxOps: 400,
			outcome: func(gen *workload.Generator, c *taintCounts) func(int, anykey.Time, workload.Op) openDone {
				return taintFirstPut(gen, func(anykey.Time) openDone { return openDone{failed: true} }, c)
			},
			check: func(t *testing.T, st *OpenStats, l *openLoop, _ *scriptedTarget, c *taintCounts) {
				if st.WriteFailures != 1 || len(l.tainted) != 1 {
					t.Errorf("write failures %d, tainted keys %d, want 1 and 1", st.WriteFailures, len(l.tainted))
				}
				if c.spoiled == 0 || c.clean == 0 || l.verified != c.clean {
					t.Errorf("verified %d reads; target served %d clean and %d spoiled (both must be > 0, verified == clean)",
						l.verified, c.clean, c.spoiled)
				}
			},
		},
		{
			name: "a timed-out put taints its key", maxOps: 400,
			outcome: func(gen *workload.Generator, c *taintCounts) func(int, anykey.Time, workload.Op) openDone {
				return taintFirstPut(gen, func(rel anykey.Time) openDone { return openDone{doneRel: rel.Add(timeout + 1)} }, c)
			},
			check: func(t *testing.T, st *OpenStats, l *openLoop, _ *scriptedTarget, c *taintCounts) {
				if st.Timeouts != 1 || len(l.tainted) != 1 {
					t.Errorf("timeouts %d, tainted keys %d, want 1 and 1", st.Timeouts, len(l.tainted))
				}
				if c.spoiled == 0 || c.clean == 0 || l.verified != c.clean {
					t.Errorf("verified %d reads; target served %d clean and %d spoiled (both must be > 0, verified == clean)",
						l.verified, c.clean, c.spoiled)
				}
			},
		},
		{
			name: "a clean key's fresh read is payload-verified", maxOps: 400, wantErr: true,
			outcome: func(*workload.Generator, *taintCounts) func(int, anykey.Time, workload.Op) openDone {
				return func(_ int, rel anykey.Time, _ workload.Op) openDone {
					d := ok(rel)
					d.value = []byte("not the payload")
					return d
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(tc.maxOps)
			gen, err := workload.NewGenerator(cfg.Workload, genCfg)
			if err != nil {
				t.Fatal(err)
			}
			var c taintCounts
			tgt := &scriptedTarget{outcome: tc.outcome(gen, &c)}
			loop := openLoop{cfg: &cfg, gen: gen, tgt: tgt, hists: testHists()}
			st, err := loop.run()
			if tc.wantErr {
				if err == nil {
					t.Fatal("run succeeded; want a wrong-payload error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, st, &loop, tgt, &c)
		})
	}
}

// TestOpenLoopHookOrder pins the per-event hook's contract: it fires exactly
// once per submission — retries included — with that event's instant,
// immediately before the submit it precedes, in non-decreasing order.
func TestOpenLoopHookOrder(t *testing.T) {
	cfg := BaseConfig{
		Workload: mustSpec("ZippyDB").WithArrival(
			workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 1000}),
		MaxOps:   40,
		NoVerify: true,
		Seed:     1,
		Timeout:  3 * sim.Millisecond,
		Retry:    RetryPolicy{MaxRetries: 2, Backoff: 500 * sim.Microsecond, MaxBackoff: 4 * sim.Millisecond},
		SLO:      2 * sim.Millisecond,
		Horizon:  sim.Second,
	}
	gen, err := workload.NewGenerator(cfg.Workload, workload.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	// Every third submission times out and every seventh fails, so retries
	// interleave with the 1 ms fresh arrivals.
	tgt := &scriptedTarget{log: &log, outcome: func(n int, rel anykey.Time, _ workload.Op) openDone {
		switch {
		case n%7 == 6:
			return openDone{failed: true}
		case n%3 == 2:
			return openDone{doneRel: rel.Add(5 * sim.Millisecond)}
		}
		return openDone{doneRel: rel.Add(100 * sim.Microsecond)}
	}}
	var hooked []anykey.Time
	loop := openLoop{cfg: &cfg, gen: gen, tgt: tgt, hists: testHists(),
		beforeSubmit: func(now anykey.Time) error {
			hooked = append(hooked, now)
			log = append(log, fmt.Sprintf("hook@%d", now))
			return nil
		}}
	st, err := loop.run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 || st.Timeouts == 0 || st.ReadFailures+st.WriteFailures == 0 {
		t.Fatalf("scenario produced no retries/timeouts/failures: %+v", *st)
	}
	if int64(len(tgt.at)) != st.Attempts || !slices.Equal(hooked, tgt.at) {
		t.Fatalf("hook fired at %v\nsubmissions at %v (attempts %d)", hooked, tgt.at, st.Attempts)
	}
	if !slices.IsSorted(hooked) {
		t.Errorf("hook instants not non-decreasing: %v", hooked)
	}
	for i := 0; i < len(log); i += 2 {
		if want := fmt.Sprintf("hook@%d", tgt.at[i/2]); log[i] != want || log[i+1] != fmt.Sprintf("submit@%d", tgt.at[i/2]) {
			t.Fatalf("event %d: log %q, %q; want %q then the matching submit", i/2, log[i], log[i+1], want)
		}
	}
}

// TestOpenLoopDeviceRun drives a real device at a sustainable rate and
// checks the scorecard adds up.
func TestOpenLoopDeviceRun(t *testing.T) {
	cfg := RunConfig{
		Device: anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 16,
			Channels: 4, ChipsPerChannel: 4},
		BaseConfig: BaseConfig{
			Workload: mustSpec("ZippyDB").WithArrival(
				workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 30e3}),
			Horizon: 20 * sim.Millisecond,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Open
	if st == nil {
		t.Fatal("open-loop run returned no OpenStats")
	}
	if st.Offered == 0 || st.Completed == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if st.Completed+st.Dropped != st.Offered {
		t.Errorf("completed %d + dropped %d != offered %d", st.Completed, st.Dropped, st.Offered)
	}
	if st.Attempts != st.Offered+st.Retries {
		t.Errorf("attempts %d != offered %d + retries %d", st.Attempts, st.Offered, st.Retries)
	}
	if res.Ops != st.Attempts {
		t.Errorf("res.Ops %d != attempts %d", res.Ops, st.Attempts)
	}
	if st.GoodOps > st.Completed {
		t.Errorf("good ops %d > completed %d", st.GoodOps, st.Completed)
	}
	if st.Goodput <= 0 {
		t.Errorf("goodput %v not positive", st.Goodput)
	}
	if res.Verified == 0 {
		t.Error("no reads verified at a sustainable rate")
	}
}

// TestOpenLoopClusterRun drives the per-shard open-loop submission path and
// checks shard routing tallies match the attempt count.
func TestOpenLoopClusterRun(t *testing.T) {
	cfg := ClusterRunConfig{
		Cluster: anykey.ClusterOptions{Shards: 2, Device: anykey.Options{
			Design: anykey.DesignAnyKeyPlus, CapacityMB: 16, Channels: 4, ChipsPerChannel: 4}},
		BaseConfig: BaseConfig{
			Workload: mustSpec("ZippyDB").WithArrival(
				workload.ArrivalSpec{Shape: workload.ArrivalBursty, Rate: 40e3, Burst: 2.0,
					Period: 10 * sim.Millisecond}),
			Horizon: 20 * sim.Millisecond,
		},
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Open
	if st == nil {
		t.Fatal("open-loop cluster run returned no OpenStats")
	}
	if st.Offered == 0 || st.Completed == 0 || st.Goodput <= 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	var routed int64
	for _, n := range res.ShardOps {
		routed += n
	}
	if routed != st.Attempts {
		t.Errorf("shard ops sum %d != attempts %d", routed, st.Attempts)
	}
	if res.Ops != st.Attempts {
		t.Errorf("res.Ops %d != attempts %d", res.Ops, st.Attempts)
	}
}

// TestOpenLoopBlameCauses checks the acceptance gate on attribution: a
// traced overloaded run must blame above-P99 time onto the named timeout
// and retry causes while keeping coverage at 95%+.
func TestOpenLoopBlameCauses(t *testing.T) {
	cfg := RunConfig{
		Device: anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 16,
			Channels: 4, ChipsPerChannel: 4, Trace: &anykey.TraceOptions{}},
		BaseConfig: BaseConfig{
			Workload: mustSpec("ZippyDB").WithArrival(
				workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 400e3}),
			Horizon: 20 * sim.Millisecond,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Open
	if st == nil || st.Timeouts == 0 || st.Retries == 0 {
		t.Fatalf("overload run produced no timeouts/retries: %+v", st)
	}
	b := res.Blame
	if b == nil {
		t.Fatal("traced run produced no blame report")
	}
	if cov := b.Coverage(); cov < 0.95 {
		t.Errorf("blame coverage %.3f below the 0.95 gate\n%s", cov, b)
	}
	if s := b.Share(trace.CauseRetry); s <= 0 {
		t.Errorf("no blame attributed to retry queueing\n%s", b)
	}
	if s := b.Share(trace.CauseTimeout); s < 0 {
		t.Errorf("negative timeout share %v", s)
	}
}

// TestStormReportGoldenDeterminism pins the storm experiment's determinism
// contract in the cluster-suite style: seed 1 serially and seed 7 on a
// parallel pool, each against its serially-recorded fingerprint.
func TestStormReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick storm suite twice")
	}
	checkPinnedReport(t, "storm", 1, 0)
	checkPinnedReport(t, "storm", 7, 4)
}
