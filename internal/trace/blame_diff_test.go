package trace_test

// Differential tests for Tracer.Blame. referenceBlame below is the
// copy-and-index implementation Blame had before it was rewritten to read
// the rings in place: it needs only the public Ops()/Events() accessors, so
// it lives here, in the external test package, next to device-driven
// traffic (which package trace itself, a leaf, cannot import).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anykey"
	"anykey/internal/harness"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/workload"
)

// referenceBlame is the pre-rewrite Tracer.Blame, verbatim but for the
// accessors: copy both rings, index every event by op and by track in maps,
// sort every track, walk each wait window from the track's first event.
func referenceBlame(t *trace.Tracer, opt trace.BlameOptions) *trace.BlameReport {
	if t == nil {
		return nil
	}
	if opt.Percentile <= 0 || opt.Percentile > 100 {
		opt.Percentile = 99
	}
	if opt.MaxOps <= 0 {
		opt.MaxOps = 64
	}
	ops := t.Ops()
	rep := &trace.BlameReport{
		Percentile: opt.Percentile,
		TotalOps:   len(ops),
		Dropped:    t.DroppedEvents(),
	}
	if len(ops) == 0 {
		return rep
	}

	var h stats.Histogram
	for _, op := range ops {
		h.Record(op.Latency())
	}
	rep.Threshold = h.Percentile(opt.Percentile)

	events := t.Events()
	byOp := make(map[int64][]int, len(ops))
	byTrack := map[trace.Track][]int{}
	for i, ev := range events {
		if ev.Op != 0 {
			byOp[ev.Op] = append(byOp[ev.Op], i)
		}
		byTrack[ev.Track] = append(byTrack[ev.Track], i)
	}
	for _, idxs := range byTrack {
		slices.SortFunc(idxs, func(a, b int) int {
			switch {
			case events[a].Start < events[b].Start:
				return -1
			case events[a].Start > events[b].Start:
				return 1
			}
			return 0
		})
	}

	for _, op := range ops {
		if op.Latency() < rep.Threshold {
			continue
		}
		b := referenceBlameOp(op, events, byOp[op.Seq], byTrack)
		rep.BlamedOps++
		for c := trace.Cause(0); c < trace.NumCauses; c++ {
			rep.Summary[c] += b.Shares[c]
		}
		rep.Ops = append(rep.Ops, b)
	}
	slices.SortFunc(rep.Ops, func(a, b trace.OpBlame) int {
		switch {
		case a.Total > b.Total:
			return -1
		case a.Total < b.Total:
			return 1
		}
		return 0
	})
	if len(rep.Ops) > opt.MaxOps {
		rep.Ops = rep.Ops[:opt.MaxOps]
	}
	return rep
}

func referenceBlameOp(op trace.OpRecord, events []trace.Event, own []int, byTrack map[trace.Track][]int) trace.OpBlame {
	b := trace.OpBlame{Op: op, Total: op.Latency()}
	if b.Total <= 0 {
		return b
	}
	queueCause := trace.CauseHostQueue
	if op.Attempt > 0 {
		queueCause = trace.CauseRetry
	}
	b.Shares[queueCause] += op.QueueWait()

	for _, i := range own {
		ev := events[i]
		s, e := refClip(ev.Start, ev.End, op.Arrival, op.Done)
		if e > s {
			b.Shares[refSelfCause(ev)] += e.Sub(s)
		}
		w0, w1 := refClip(ev.Issue, ev.Start, op.Arrival, op.Done)
		if w1 > w0 {
			referenceBlameWindow(&b, events, byTrack[ev.Track], ev.Track, op.Seq, w0, w1)
		}
	}

	var sum sim.Duration
	for c := trace.Cause(0); c < trace.NumCauses; c++ {
		sum += b.Shares[c]
	}
	switch {
	case sum < b.Total:
		b.Shares[trace.CauseCPU] += b.Total - sum
	case sum > b.Total:
		var acc sim.Duration
		for c := trace.Cause(0); c < trace.NumCauses; c++ {
			b.Shares[c] = sim.Duration(int64(b.Shares[c]) * int64(b.Total) / int64(sum))
			acc += b.Shares[c]
		}
		b.Shares[trace.CauseCPU] += b.Total - acc
	}
	return b
}

func referenceBlameWindow(b *trace.OpBlame, events []trace.Event, track []int, tr trace.Track, seq int64, w0, w1 sim.Time) {
	cur := w0
	for _, i := range track {
		ev := events[i]
		if ev.End <= cur || ev.Start == ev.End {
			continue
		}
		if ev.Start >= w1 {
			break
		}
		c := refWaitCause(ev, seq)
		if ev.Start > cur {
			b.Shares[c] += ev.Start.Sub(cur)
			cur = ev.Start
		}
		if e := min(ev.End, w1); e > cur {
			b.Shares[c] += e.Sub(cur)
			cur = e
		}
		if cur >= w1 {
			return
		}
	}
	if cur < w1 {
		c := trace.CauseUnknown
		if tr.Kind() == trace.TrackCPU {
			c = trace.CauseCPU
		}
		b.Shares[c] += w1.Sub(cur)
	}
}

func refSelfCause(ev trace.Event) trace.Cause {
	switch ev.Name {
	case trace.EvWriteStall:
		return trace.CauseWriteStall
	case trace.EvReadRetry:
		return trace.CauseFaultRetry
	case trace.EvTimeout:
		return trace.CauseTimeout
	case trace.EvRetry:
		return trace.CauseRetry
	case trace.EvCPU:
		switch ev.Cause {
		case trace.CauseHostRead, trace.CauseHostWrite, trace.CauseMeta:
			return trace.CauseCPU
		}
		return ev.Cause
	}
	switch ev.Cause {
	case trace.CauseHostRead, trace.CauseHostWrite, trace.CauseMeta:
		return trace.CauseSelf
	}
	return ev.Cause
}

func refWaitCause(ev trace.Event, seq int64) trace.Cause {
	if ev.Op == seq {
		return trace.CauseSelf
	}
	if ev.Name == trace.EvReadRetry {
		return trace.CauseFaultRetry
	}
	return ev.Cause
}

func refClip(s, e, lo, hi sim.Time) (sim.Time, sim.Time) {
	return max(s, lo), min(e, hi)
}

// sameAsReference compares Blame with referenceBlame on tr's current
// contents across the option grid, twice per cell: the second call runs on
// the scratch memory the first one left behind.
func sameAsReference(t *testing.T, tr *trace.Tracer) {
	t.Helper()
	for _, pct := range []float64{50, 99, 100} {
		for _, maxOps := range []int{1, 64} {
			opt := trace.BlameOptions{Percentile: pct, MaxOps: maxOps}
			want := referenceBlame(tr, opt)
			for call := 0; call < 2; call++ {
				got := tr.Blame(opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("p%g MaxOps %d call %d: Blame differs from the reference\n got: %s\nwant: %s",
						pct, maxOps, call, got, want)
				}
			}
		}
	}
}

// countEvents returns how many retained events have the given name, and how
// many of those are tagged with an op.
func countEvents(tr *trace.Tracer, name trace.Name) (n, tagged int) {
	for _, ev := range tr.Events() {
		if ev.Name == name {
			n++
			if ev.Op != 0 {
				tagged++
			}
		}
	}
	return n, tagged
}

// driveDevice pushes ops seeded mixed requests through a QD-8 engine over a
// small key ring: overwrites force flushes and compactions, the queue depth
// makes ops wait behind each other on chips and channels.
func driveDevice(t testing.TB, dev *anykey.Device, seed int64, ops int) {
	t.Helper()
	eng, err := dev.NewEngine(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	val := bytes.Repeat([]byte{0xAB}, 200)
	const keys = 1500
	for i := 0; i < ops; i++ {
		k := []byte(fmt.Sprintf("blame-key-%06d", rng.Intn(keys)))
		switch {
		case i < keys || rng.Intn(3) == 0:
			_, err = eng.Put([]byte(fmt.Sprintf("blame-key-%06d", i%keys)), val)
		case rng.Intn(40) == 0:
			_, err = eng.Scan(k, 8)
		default:
			if _, err = eng.Get(k); err == anykey.ErrNotFound {
				err = nil
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func openTraced(t testing.TB, opts anykey.Options) *anykey.Device {
	t.Helper()
	dev, err := anykey.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

// TestBlameMatchesReference: the in-place Blame must return exactly what the
// copy-and-index one did, on traces with every shape the rewrite treats
// specially.
func TestBlameMatchesReference(t *testing.T) {
	small := &anykey.TraceOptions{EventBuffer: 1 << 13, OpBuffer: 1 << 10}

	for _, design := range []anykey.Design{anykey.DesignAnyKeyPlus, anykey.DesignPinK} {
		t.Run("wrapped-rings/"+design.String(), func(t *testing.T) {
			dev := openTraced(t, anykey.Options{Design: design, CapacityMB: 32, Trace: small})
			driveDevice(t, dev, 1, 12_000)
			tr := dev.Trace()
			if tr.DroppedEvents() == 0 || len(tr.Ops()) != small.OpBuffer {
				t.Fatalf("rings did not wrap: %d events dropped, %d ops retained", tr.DroppedEvents(), len(tr.Ops()))
			}
			sameAsReference(t, tr)
		})
	}

	t.Run("unwrapped-default-rings", func(t *testing.T) {
		dev := openTraced(t, anykey.Options{CapacityMB: 32, Trace: &anykey.TraceOptions{}})
		driveDevice(t, dev, 2, 6_000)
		if dev.Trace().DroppedEvents() != 0 {
			t.Fatal("default rings wrapped; this case wants them partly filled")
		}
		sameAsReference(t, dev.Trace())
	})

	// A Reset between two bursts: event counts restart from zero while op
	// sequence numbers keep counting, so the stamped ranges of the second
	// burst must be read against the new count.
	t.Run("reset-mid-stream", func(t *testing.T) {
		dev := openTraced(t, anykey.Options{CapacityMB: 32, Trace: small})
		driveDevice(t, dev, 3, 5_000)
		dev.Trace().Reset()
		sameAsReference(t, dev.Trace())
		driveDevice(t, dev, 4, 700) // fewer ops than the op ring holds
		sameAsReference(t, dev.Trace())
		driveDevice(t, dev, 5, 5_000)
		sameAsReference(t, dev.Trace())
	})

	// Transient read errors add read-retry events: an op's own (fault-retry
	// run time) and, at QD 8, other ops' (fault-retry waits).
	t.Run("read-retries", func(t *testing.T) {
		dev := openTraced(t, anykey.Options{CapacityMB: 32, Trace: small,
			Faults: &anykey.FaultPlan{Seed: 7, ReadErrorRate: 0.05}})
		driveDevice(t, dev, 6, 12_000)
		if n, _ := countEvents(dev.Trace(), trace.EvReadRetry); n == 0 {
			t.Fatal("no read-retry events retained; the fault plan did not fire")
		}
		sameAsReference(t, dev.Trace())
	})

	// Open-loop overload: the harness's client tags a finished op with a
	// timeout span and a retry marker (OpSpan after EndOp — the events that
	// fall outside the BeginOp..EndOp range) and renumbers retried attempts
	// (MarkAttempt), which moves their queue wait to the retry bucket.
	t.Run("open-loop-timeouts-and-retries", func(t *testing.T) {
		spec, ok := workload.ByName("ZippyDB")
		if !ok {
			t.Fatal("no ZippyDB workload")
		}
		cfg := harness.RunConfig{
			Device: anykey.Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4,
				DRAMBytes: 16 << 20 / 100, Seed: 1,
				Trace: &anykey.TraceOptions{EventBuffer: 1 << 15, OpBuffer: 1 << 12}},
			BaseConfig: harness.BaseConfig{
				Workload: spec.WithArrival(workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 900_000}),
				Seed:     1,
				Horizon:  20 * sim.Millisecond,
				Timeout:  2 * sim.Millisecond,
			},
		}
		res, err := harness.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Open == nil || res.Open.Timeouts == 0 || res.Open.Retries == 0 {
			t.Fatalf("run was not overloaded: %+v", res.Open)
		}
		timeouts, tagged := countEvents(res.Trace, trace.EvTimeout)
		retried := 0
		for _, op := range res.Trace.Ops() {
			if op.Attempt > 0 {
				retried++
			}
		}
		if timeouts == 0 || tagged != timeouts || retried == 0 {
			t.Fatalf("trace retains %d timeout spans (%d tagged with an op) and %d retried attempts; want all three non-zero and equal tags",
				timeouts, tagged, retried)
		}
		sameAsReference(t, res.Trace)
		if rep := res.Trace.Blame(trace.BlameOptions{}); rep.Summary[trace.CauseTimeout] == 0 || rep.Summary[trace.CauseRetry] == 0 {
			t.Fatalf("client causes missing from the tail:\n%s", rep)
		}
	})
}

// TestBlameMatchesReferenceSynthetic drives the tracer API directly with
// seeded random streams, so that shapes real firmware never produces are
// covered too: several spans starting at the same instant on one track and
// overlapping each other (the tie order of an unstable sort), late gap
// fillers, OpSpan for the in-flight op, for the newest finished one and for
// an older one, a BeginOp that abandons the previous op, Reset with an op in
// flight, an op with more events than the ring holds, the zero Track, and
// hundreds of tracks.
func TestBlameMatchesReferenceSynthetic(t *testing.T) {
	tracks := []trace.Track{
		0,
		trace.MakeTrack(trace.TrackChip, 0), trace.MakeTrack(trace.TrackChip, 1),
		trace.MakeTrack(trace.TrackChannel, 0), trace.CPUTrack,
		trace.BGTrack(trace.CauseFlush), trace.BGTrack(trace.CauseTimeout),
	}
	names := []trace.Name{trace.EvCellRead, trace.EvProgram, trace.EvCPU, trace.EvFlush,
		trace.EvReadRetry, trace.EvWriteStall, trace.EvTimeout, trace.EvRetry}
	causes := []trace.Cause{trace.CauseHostRead, trace.CauseHostWrite, trace.CauseFlush,
		trace.CauseCompaction, trace.CauseGC, trace.CauseMeta}

	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tracks := tracks
		if seed%10 == 0 { // more tracks than the track table starts with room for
			for i := 2; i < 700; i++ {
				tracks = append(tracks[:len(tracks):len(tracks)], trace.MakeTrack(trace.TrackChip, i))
			}
		}
		tr := trace.New(trace.Config{Events: 64 + rng.Intn(512), Ops: 8 + rng.Intn(64)})
		var now sim.Time
		var done []int64 // finished ops, oldest first
		span := func(emit func(tk trace.Track, n trace.Name, c trace.Cause, issue, start, end sim.Time)) {
			// Coarse times make equal starts and overlaps common.
			issue := now - sim.Time(10*rng.Intn(20))
			start := issue + sim.Time(10*rng.Intn(8))
			end := start + sim.Time(10*rng.Intn(12))
			emit(tracks[rng.Intn(len(tracks))], names[rng.Intn(len(names))],
				causes[rng.Intn(len(causes))], issue, start, end)
		}
		plain := func(tk trace.Track, n trace.Name, c trace.Cause, issue, start, end sim.Time) {
			tr.Span(tk, n, c, issue, start, end, 0)
		}
		for step := 0; step < 1500; step++ {
			now += sim.Time(10 * rng.Intn(6))
			arrival := now - sim.Time(10*rng.Intn(10))
			seq := tr.BeginOp(trace.OpKind(rng.Intn(5)), rng.Intn(4), arrival, now)
			if rng.Intn(25) == 0 {
				seq = tr.BeginOp(trace.OpGet, 0, arrival, now) // abandons the op just opened
			}
			spans := rng.Intn(6)
			if rng.Intn(100) == 0 {
				spans = 100 + rng.Intn(700) // an op that can outgrow the event ring
			}
			for ; spans > 0; spans-- {
				span(plain)
			}
			if rng.Intn(10) == 0 {
				span(func(tk trace.Track, n trace.Name, c trace.Cause, issue, start, end sim.Time) {
					tr.OpSpan(tk, n, c, seq, issue, start, end, 0) // the in-flight op
				})
			}
			if rng.Intn(200) == 0 {
				tr.Reset()
				done = done[:0]
			}
			now += sim.Time(10 * rng.Intn(30))
			tr.EndOp(seq, now, rng.Intn(20) == 0)
			if last := tr.LastOpSeq(); last == seq {
				done = append(done, seq)
			}
			for n := rng.Intn(3); n > 0; n-- {
				span(plain) // background work between ops: tagged with no op
			}
			if len(done) > 0 && rng.Intn(4) == 0 {
				op := done[len(done)-1]
				if rng.Intn(3) == 0 {
					op = done[rng.Intn(len(done))] // possibly long overwritten
				}
				tr.MarkAttempt(op, int32(1+rng.Intn(3)))
				span(func(tk trace.Track, n trace.Name, c trace.Cause, issue, start, end sim.Time) {
					tr.OpSpan(tk, n, c, op, issue, start, end, 0)
				})
			}
			if step%250 == 249 {
				sameAsReference(t, tr)
			}
		}
		sameAsReference(t, tr)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// fullRings returns a tracer whose default-sized rings were filled twice
// over by real device traffic — the mixed Put/Get stream of the benchmark's
// trace.blame_full_ring probe (bench/probes.go).
func fullRings(tb testing.TB) *trace.Tracer {
	tb.Helper()
	spec, ok := workload.ByName("ZippyDB")
	if !ok {
		tb.Fatal("no ZippyDB workload")
	}
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = workload.Key(spec, uint64(i))
	}
	val := workload.Value(spec, 1, 0)
	dev := openTraced(tb, anykey.Options{CapacityMB: 32, Trace: &anykey.TraceOptions{}})
	for i := 0; i < 1<<17; i++ {
		var err error
		if k := keys[i%len(keys)]; i < len(keys) || i%4 == 0 {
			_, err = dev.Put(k, val)
		} else {
			_, _, err = dev.Get(k)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	tr := dev.Trace()
	if tr.DroppedEvents() == 0 || len(tr.Ops()) != 1<<16 {
		tb.Fatalf("default rings not full: %d events dropped, %d ops", tr.DroppedEvents(), len(tr.Ops()))
	}
	return tr
}

// blameAllocCeiling bounds the heap objects one steady-state Blame may
// allocate on full default rings (the copy-and-index version: 168-219 K).
// CI's alloc-gates job holds BenchmarkBlameFullRing's allocs/op to the same
// number.
const blameAllocCeiling = 100

// scrapeBlame is the call a metrics scrape makes per shard.
var scrapeBlame = trace.BlameOptions{Percentile: 99, MaxOps: 1}

// TestBlameSteadyStateAllocs: after the first call has sized the tracer's
// scratch, Blame allocates a report and its rows, not a ring's worth of
// index.
func TestBlameSteadyStateAllocs(t *testing.T) {
	tr := fullRings(t)
	want := referenceBlame(tr, scrapeBlame)
	if got := tr.Blame(scrapeBlame); !reflect.DeepEqual(got, want) {
		t.Fatalf("full default rings: Blame differs from the reference\n got: %s\nwant: %s", got, want)
	}
	for _, opt := range []trace.BlameOptions{scrapeBlame, {}} {
		if n := testing.AllocsPerRun(5, func() { tr.Blame(opt) }); n > blameAllocCeiling {
			t.Errorf("Blame(%+v) on full default rings allocates %.0f objects per call, want at most %d", opt, n, blameAllocCeiling)
		}
	}
}

// BenchmarkBlameFullRing times the scrape's Blame on full default rings.
func BenchmarkBlameFullRing(b *testing.B) {
	tr := fullRings(b)
	tr.Blame(scrapeBlame) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Blame(scrapeBlame).BlamedOps == 0 {
			b.Fatal("nothing blamed")
		}
	}
}
