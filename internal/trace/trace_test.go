package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"anykey/internal/sim"
)

var (
	chip0 = MakeTrack(TrackChip, 0)
	chan0 = MakeTrack(TrackChannel, 0)
)

// TestNilTracerSafe: a nil *Tracer is the disabled path — every method must
// be callable and observably inert.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	seq := tr.BeginOp(OpPut, 3, 0, 10)
	if seq != 0 {
		t.Fatalf("nil BeginOp = %d, want 0", seq)
	}
	tr.EndOp(seq, 20, false)
	tr.Span(chip0, EvCellRead, CauseHostRead, 0, 1, 2, 0)
	tr.Instant(chip0, EvPowerCut, CauseRecovery, 5, 0)
	tr.EnterScope(CauseRecovery)
	tr.ExitScope()
	tr.Reset()
	if tr.EventCount() != 0 || tr.DroppedEvents() != 0 {
		t.Fatal("nil tracer reports retained or dropped events")
	}
	if tr.Events() != nil || tr.Ops() != nil {
		t.Fatal("nil tracer returned non-nil slices")
	}
	if tr.Blame(BlameOptions{}) != nil {
		t.Fatal("nil tracer returned a blame report")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil tracer Chrome export is not valid JSON: %s", buf.String())
	}
	buf.Reset()
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
}

// TestZeroAlloc pins the overhead contract from the package doc: the
// disabled (nil) path allocates nothing, and so does the enabled hot path —
// events land in the preallocated ring, and the event range BeginOp, EndOp
// and the open-loop client's post-completion OpSpan/MarkAttempt keep on the
// op record is plain stores into the op ring.
func TestZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		seq := nilTr.BeginOp(OpGet, 0, 0, 0)
		nilTr.Span(chip0, EvCellRead, CauseHostRead, 0, 1, 2, 42)
		nilTr.EndOp(seq, 3, false)
		nilTr.MarkAttempt(seq, 1)
		nilTr.OpSpan(chip0, EvTimeout, CauseTimeout, seq, 2, 2, 3, 0)
	}); n != 0 {
		t.Fatalf("nil tracer path allocates %.1f/op, want 0", n)
	}
	tr := New(Config{Events: 1 << 10, Ops: 1 << 8})
	if n := testing.AllocsPerRun(100, func() {
		seq := tr.BeginOp(OpGet, 0, 0, 0)
		tr.Span(chip0, EvCellRead, CauseHostRead, 0, 1, 2, 42)
		tr.Instant(chan0, EvProgramFail, CauseGC, 2, 7)
		tr.EndOp(seq, 3, false)
		tr.MarkAttempt(seq, 1)
		tr.OpSpan(BGTrack(CauseTimeout), EvTimeout, CauseTimeout, seq, 2, 2, 3, 0)
	}); n != 0 {
		t.Fatalf("enabled tracer hot path allocates %.1f/op, want 0", n)
	}
}

// TestOpEventRange pins the invariant Blame's per-op event lookup rests on:
// a record's [evLo, evHi) covers every event tagged with its op — the ones
// emitted between BeginOp and EndOp, and an OpSpan added after EndOp, whose
// range is stretched over whatever was emitted in between.
func TestOpEventRange(t *testing.T) {
	tr := New(Config{Events: 64, Ops: 8})
	tr.Span(chip0, EvProgram, CauseFlush, 0, 0, 1, 0) // before any op
	a := tr.BeginOp(OpGet, 0, 0, 0)
	tr.Span(chip0, EvCellRead, CauseHostRead, 1, 1, 2, 0)
	tr.OpSpan(chan0, EvReadXfer, CauseHostRead, a, 2, 2, 3, 0) // in flight: range still open
	tr.EndOp(a, 3, false)
	b := tr.BeginOp(OpPut, 0, 3, 3)
	tr.Span(chip0, EvProgram, CauseHostWrite, 3, 3, 4, 0)
	tr.EndOp(b, 4, false)
	tr.Span(chip0, EvErase, CauseGC, 4, 4, 5, 0) // background, no op
	check := func(when string, want map[int64][2]int64) {
		t.Helper()
		for _, op := range tr.Ops() {
			if got := [2]int64{op.evLo, op.evHi}; got != want[op.Seq] {
				t.Errorf("%s: op %d event range = %v, want %v", when, op.Seq, got, want[op.Seq])
			}
		}
	}
	check("after EndOp", map[int64][2]int64{a: {1, 3}, b: {3, 4}})

	tr.OpSpan(BGTrack(CauseTimeout), EvTimeout, CauseTimeout, b, 4, 4, 5, 0) // newest op
	tr.OpSpan(BGTrack(CauseRetry), EvRetry, CauseRetry, a, 5, 5, 5, 0)       // an older op
	tr.OpSpan(BGTrack(CauseRetry), EvRetry, CauseRetry, 99, 5, 5, 5, 0)      // no such record
	check("after OpSpan", map[int64][2]int64{a: {1, 7}, b: {3, 6}})
	for _, op := range tr.Ops() {
		tagged := 0
		for n, ev := range tr.Events() {
			if ev.Op != op.Seq {
				continue
			}
			tagged++
			if int64(n) < op.evLo || int64(n) >= op.evHi {
				t.Errorf("op %d: event %d lies outside its range [%d, %d)", op.Seq, n, op.evLo, op.evHi)
			}
		}
		if want := map[int64]int{a: 3, b: 2}[op.Seq]; tagged != want {
			t.Errorf("op %d has %d tagged events, want %d", op.Seq, tagged, want)
		}
	}
}

// TestRingWrap: overfilling the event ring keeps the newest events in
// insertion order and counts the overwritten ones.
func TestRingWrap(t *testing.T) {
	tr := New(Config{Events: 4, Ops: 4})
	for i := 0; i < 7; i++ {
		tr.Span(chip0, EvProgram, CauseFlush, sim.Time(i), sim.Time(i), sim.Time(i+1), int64(i))
	}
	if got := tr.EventCount(); got != 4 {
		t.Fatalf("EventCount = %d, want 4", got)
	}
	if got := tr.DroppedEvents(); got != 3 {
		t.Fatalf("DroppedEvents = %d, want 3", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 3); ev.Arg != want {
			t.Fatalf("Events()[%d].Arg = %d, want %d (oldest-first order)", i, ev.Arg, want)
		}
	}
	tr.Reset()
	if tr.EventCount() != 0 || tr.DroppedEvents() != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

// TestScopeOverride: EnterScope relabels everything emitted until ExitScope
// — the recovery path uses this to tag ordinary reads as recovery I/O.
func TestScopeOverride(t *testing.T) {
	tr := New(Config{Events: 16, Ops: 4})
	tr.EnterScope(CauseRecovery)
	tr.Span(chip0, EvCellRead, CauseHostRead, 0, 0, 1, 0)
	tr.ExitScope()
	tr.Span(chip0, EvCellRead, CauseHostRead, 1, 1, 2, 0)
	evs := tr.Events()
	if evs[0].Cause != CauseRecovery {
		t.Fatalf("scoped event cause = %v, want recovery", evs[0].Cause)
	}
	if evs[1].Cause != CauseHostRead {
		t.Fatalf("post-scope event cause = %v, want host-read", evs[1].Cause)
	}
}

// chromeFile mirrors the trace_event JSON schema subset the export uses.
type chromeFile struct {
	DisplayTimeUnit string     `json:"displayTimeUnit"`
	TraceEvents     []chromeEv `json:"traceEvents"`
}

type chromeEv struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceRoundTrip: the export must be valid JSON that decodes into
// the trace_event schema with every required field populated.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New(Config{Events: 64, Ops: 16})
	seq := tr.BeginOp(OpGet, 2, 100, 150)
	tr.Span(chip0, EvCellRead, CauseHostRead, 150, 200, 3200, 7)
	tr.Span(chan0, EvReadXfer, CauseHostRead, 3200, 3200, 3500, 7)
	tr.EndOp(seq, 4000, false)
	tr.Span(CPUTrack, EvCPU, CauseCompaction, 0, 0, 80, 0)
	tr.Instant(BGTrack(CauseRecovery), EvPowerCut, CauseRecovery, 9000, 3)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", f.DisplayTimeUnit)
	}
	var spans, instants, metas, opRows int
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Fatalf("event %d: negative dur %g", i, ev.Dur)
			}
			if ev.Cat == "op" {
				opRows++
				if _, ok := ev.Args["seq"]; !ok {
					t.Fatalf("op event %d missing args.seq", i)
				}
			}
		case "i":
			instants++
			if ev.S != "p" {
				t.Fatalf("instant %d: scope = %q, want p", i, ev.S)
			}
		case "M":
			metas++
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Fatalf("metadata %d: unexpected name %q", i, ev.Name)
			}
			continue
		default:
			t.Fatalf("event %d: unexpected ph %q", i, ev.Ph)
		}
		if ev.Pid < pidHost || ev.Pid > pidBackground {
			t.Fatalf("event %d: pid %d out of range", i, ev.Pid)
		}
		if ev.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
	}
	// 3 spans (cell read, xfer, cpu) + 1 op row, 1 instant, ≥6 metadata rows.
	if spans != 4 || opRows != 1 || instants != 1 || metas < 6 {
		t.Fatalf("spans=%d opRows=%d instants=%d metas=%d, want 4/1/1/≥6",
			spans, opRows, instants, metas)
	}
}

// TestCSVParse: the CSV export must parse with encoding/csv and carry one
// row per record plus the header.
func TestCSVParse(t *testing.T) {
	tr := New(Config{Events: 16, Ops: 4})
	seq := tr.BeginOp(OpPut, 1, 0, 10)
	tr.Span(chip0, EvProgram, CauseHostWrite, 10, 10, 600, 42)
	tr.EndOp(seq, 700, true)

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	if len(rows) != 3 { // header + 1 op + 1 event
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if got := strings.Join(rows[0], ","); got != "record,name,cause,track,op,issue_ns,start_ns,end_ns,arg" {
		t.Fatalf("header = %q", got)
	}
	if rows[1][0] != "op" || rows[1][1] != "put" || rows[1][8] != "1" {
		t.Fatalf("op row = %v", rows[1])
	}
	if rows[2][0] != "event" || rows[2][1] != "program" || rows[2][2] != "host-write" || rows[2][3] != "chip:0" {
		t.Fatalf("event row = %v", rows[2])
	}
}

// --- blame math -------------------------------------------------------------

// oneOpBlame builds a tracer with exactly the given background events and
// one op, and returns that op's decomposition (percentile 1 so it always
// qualifies).
func oneOpBlame(t *testing.T, build func(tr *Tracer)) OpBlame {
	t.Helper()
	tr := New(Config{Events: 64, Ops: 8})
	build(tr)
	rep := tr.Blame(BlameOptions{Percentile: 1})
	if rep.BlamedOps != 1 || len(rep.Ops) != 1 {
		t.Fatalf("BlamedOps=%d len(Ops)=%d, want 1/1", rep.BlamedOps, len(rep.Ops))
	}
	return rep.Ops[0]
}

// TestBlameQueueAndResidual: an op with no events at all decomposes into its
// submission-queue wait plus controller-CPU residual — nothing unknown.
func TestBlameQueueAndResidual(t *testing.T) {
	b := oneOpBlame(t, func(tr *Tracer) {
		seq := tr.BeginOp(OpGet, 0, 0, 100)
		tr.EndOp(seq, 250, false)
	})
	if b.Total != 250 {
		t.Fatalf("Total = %v, want 250", b.Total)
	}
	if b.Shares[CauseHostQueue] != 100 {
		t.Fatalf("host-queue share = %v, want 100", b.Shares[CauseHostQueue])
	}
	if b.Shares[CauseCPU] != 150 {
		t.Fatalf("cpu residual = %v, want 150", b.Shares[CauseCPU])
	}
	if b.Named() != 1 {
		t.Fatalf("Named = %v, want 1", b.Named())
	}
}

// TestBlameWaitBehindCompaction: the op's flash read was dispatched at t=0
// but ran at t=150 because a compaction held the die — including the
// scheduling gap before the compaction started. All 150ns must be blamed on
// the compaction.
func TestBlameWaitBehindCompaction(t *testing.T) {
	b := oneOpBlame(t, func(tr *Tracer) {
		tr.Span(chip0, EvProgram, CauseCompaction, 0, 50, 150, 0) // gap [0,50) then busy
		seq := tr.BeginOp(OpGet, 0, 0, 0)
		tr.Span(chip0, EvCellRead, CauseHostRead, 0, 150, 250, 0)
		tr.EndOp(seq, 250, false)
	})
	if b.Total != 250 {
		t.Fatalf("Total = %v, want 250", b.Total)
	}
	if b.Shares[CauseCompaction] != 150 {
		t.Fatalf("compaction share = %v, want 150 (100 busy + 50 gap)", b.Shares[CauseCompaction])
	}
	if b.Shares[CauseSelf] != 100 {
		t.Fatalf("self share = %v, want 100", b.Shares[CauseSelf])
	}
	if b.Shares[CauseUnknown] != 0 {
		t.Fatalf("unknown share = %v, want 0", b.Shares[CauseUnknown])
	}
}

// TestBlameOverCountRescale: nested own spans (a flush span over its own
// program) double-count; shares must be rescaled to sum to the latency.
func TestBlameOverCountRescale(t *testing.T) {
	b := oneOpBlame(t, func(tr *Tracer) {
		seq := tr.BeginOp(OpPut, 0, 0, 0)
		tr.Span(BGTrack(CauseFlush), EvFlush, CauseFlush, 0, 0, 100, 0)
		tr.Span(chip0, EvProgram, CauseFlush, 0, 0, 100, 0)
		tr.EndOp(seq, 100, false)
	})
	var sum sim.Duration
	for c := Cause(0); c < NumCauses; c++ {
		sum += b.Shares[c]
	}
	if sum != b.Total {
		t.Fatalf("rescaled shares sum to %v, want Total %v", sum, b.Total)
	}
	if b.Shares[CauseFlush] <= 0 {
		t.Fatalf("flush share = %v, want > 0", b.Shares[CauseFlush])
	}
}

// TestBlameUnknownCoverage: a wait on a non-CPU track with no recorded
// occupant is honest ignorance — CauseUnknown — and lowers Coverage.
func TestBlameUnknownCoverage(t *testing.T) {
	tr := New(Config{Events: 64, Ops: 8})
	seq := tr.BeginOp(OpGet, 0, 0, 0)
	tr.Span(chip0, EvCellRead, CauseHostRead, 0, 150, 250, 0) // waited 150 on an empty track
	tr.EndOp(seq, 250, false)
	rep := tr.Blame(BlameOptions{Percentile: 1})
	b := rep.Ops[0]
	if b.Shares[CauseUnknown] != 150 {
		t.Fatalf("unknown share = %v, want 150", b.Shares[CauseUnknown])
	}
	if cov := rep.Coverage(); cov >= 1 {
		t.Fatalf("Coverage = %v, want < 1", cov)
	}
	if !strings.Contains(rep.String(), "unknown") {
		t.Fatalf("report rendering omits the unknown bucket:\n%s", rep.String())
	}
}

// TestBlameThresholdMatchesHistogram: the percentile cut must select the
// same ops a harness histogram would call above-P90.
func TestBlameThresholdMatchesHistogram(t *testing.T) {
	tr := New(Config{Events: 4, Ops: 256})
	for i := 0; i < 100; i++ {
		lat := sim.Duration(1000)
		if i >= 85 {
			lat = sim.Duration(1_000_000) // 15 slow ops, far above the cut
		}
		seq := tr.BeginOp(OpGet, 0, sim.Time(i*1_000_000), sim.Time(i*1_000_000))
		tr.EndOp(seq, sim.Time(i*1_000_000).Add(lat), false)
	}
	// p90 rank lands inside the slow group: only the slow ops are at or
	// above the threshold.
	rep := tr.Blame(BlameOptions{Percentile: 90, MaxOps: 3})
	if rep.TotalOps != 100 {
		t.Fatalf("TotalOps = %d, want 100", rep.TotalOps)
	}
	if rep.Threshold <= 1000 || rep.Threshold > 1_000_000 {
		t.Fatalf("Threshold = %v, want inside the slow group", rep.Threshold)
	}
	if rep.BlamedOps != 15 {
		t.Fatalf("BlamedOps = %d, want the 15 slow ops (threshold %v)", rep.BlamedOps, rep.Threshold)
	}
	if len(rep.Ops) != 3 {
		t.Fatalf("len(Ops) = %d, want MaxOps cap of 3", len(rep.Ops))
	}
	for i := 1; i < len(rep.Ops); i++ {
		if rep.Ops[i].Total > rep.Ops[i-1].Total {
			t.Fatal("detail rows not sorted slowest-first")
		}
	}
}
