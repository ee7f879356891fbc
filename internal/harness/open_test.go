package harness

import (
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
	hist := openHists{read: &stats.Histogram{}, write: &stats.Histogram{}, scan: &stats.Histogram{}}
	var verified int64
	st, err := runOpenLoop(&cfg, gen, tgt, hist, &verified)
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
// contract in the cluster-suite style: byte-identical reports whether the
// cells run serially or on a parallel pool, across seeds.
func TestStormReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick storm suite four times")
	}
	for _, seed := range []int64{1, 7} {
		ss := checkPinnedReport(t, "storm", seed, 0)
		ps := checkPinnedReport(t, "storm", seed, 4)
		if fnv64a(ss) != fnv64a(ps) || ss != ps {
			t.Fatalf("seed %d: sequential and parallel storm reports differ\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seed, ss, ps)
		}
	}
}
