package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"anykey/internal/sim"
	"anykey/internal/stats"
)

// Blame report: for every host operation whose latency lands above a chosen
// percentile, decompose its end-to-end time into named causes — the paper's
// interference analysis ("this P99 read was slow because it queued behind a
// compaction on die 3") as a first-class tool instead of a by-hand reading
// of traces.
//
// The decomposition leans on a scheduling invariant: every flash and CPU
// event records both when it was dispatched to its track (Issue) and when
// the track actually ran it (Start), and events on one track never overlap
// (sim.Timeline fills gaps but never double-books). So an op's time splits
// into
//
//   - submission-queue wait (Arrival → Issued): the host-side slot was busy
//     with earlier ops — blamed on the host queue;
//   - its own events' run time (their durations, clipped to the op's
//     lifetime): blamed on the op itself, or on the background duty the op
//     performed inline (a write-triggered flush, a fault retry);
//   - each own event's track wait (Issue → Start): walked against the
//     track's full schedule; time overlapping another event is blamed on
//     that event's cause, time in a gap on the next event to run (the
//     scheduler only leaves a gap when the slot is too small for the waiting
//     work, so the next occupant is what forced the wait);
//   - the remainder (fixed request overhead, inter-event firmware time):
//     blamed on the controller CPU.
//
// Anything not covered — an event the ring already overwrote, a track the
// tracer never saw — lands in CauseUnknown, so the report is honest about
// its own coverage: Coverage() is the fraction of blamed time carrying a
// real name.

// BlameOptions selects which ops a blame report covers.
type BlameOptions struct {
	// Percentile is the latency cut: ops at or above this percentile of
	// the traced latency distribution are decomposed. Default 99.
	Percentile float64
	// MaxOps caps the per-op detail rows retained (slowest first).
	// Default 64; the Summary always aggregates every qualifying op.
	MaxOps int
}

// OpBlame is the decomposition of one slow operation.
type OpBlame struct {
	Op     OpRecord
	Total  sim.Duration // end-to-end latency (Done − Arrival)
	Shares [NumCauses]sim.Duration
}

// Named returns the portion of Total attributed to named causes (everything
// but CauseUnknown), as a fraction in [0,1].
func (b OpBlame) Named() float64 {
	if b.Total <= 0 {
		return 1
	}
	return 1 - float64(b.Shares[CauseUnknown])/float64(b.Total)
}

// dominantCause returns the largest non-self, non-queue share, for the
// one-line rendering; falls back to the largest share overall.
func (b OpBlame) dominantCause() Cause {
	best, bestAny := CauseSelf, CauseSelf
	for c := Cause(0); c < NumCauses; c++ {
		if b.Shares[c] > b.Shares[bestAny] {
			bestAny = c
		}
		if c != CauseSelf && c != CauseHostQueue && c != CauseCPU &&
			b.Shares[c] > b.Shares[best] {
			best = c
		}
	}
	if b.Shares[best] > 0 {
		return best
	}
	return bestAny
}

// BlameReport attributes above-percentile op time to causes.
type BlameReport struct {
	Percentile float64
	Threshold  sim.Duration // latency at the percentile cut
	TotalOps   int          // ops traced
	BlamedOps  int          // ops at or above the threshold
	Ops        []OpBlame    // detailed rows, slowest first (≤ MaxOps)
	Summary    [NumCauses]sim.Duration
	Dropped    int64 // events the ring overwrote (coverage caveat)
}

// TotalBlamed returns the summed latency of all decomposed ops.
func (r *BlameReport) TotalBlamed() sim.Duration {
	var t sim.Duration
	for _, s := range r.Summary {
		t += s
	}
	return t
}

// Coverage returns the fraction of blamed time attributed to named causes.
func (r *BlameReport) Coverage() float64 {
	t := r.TotalBlamed()
	if t <= 0 {
		return 1
	}
	return 1 - float64(r.Summary[CauseUnknown])/float64(t)
}

// Share returns cause c's fraction of all blamed time.
func (r *BlameReport) Share(c Cause) float64 {
	t := r.TotalBlamed()
	if t <= 0 {
		return 0
	}
	return float64(r.Summary[c]) / float64(t)
}

// String renders the report: the cut, the aggregate cause breakdown, and
// the slowest individual ops with their dominant interferer.
func (r *BlameReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "blame: %d/%d ops at or above p%g (%v), coverage %.1f%%\n",
		r.BlamedOps, r.TotalOps, r.Percentile, r.Threshold, 100*r.Coverage())
	if r.Dropped > 0 {
		fmt.Fprintf(&sb, "  (ring overwrote %d events; early causes may be undercounted)\n", r.Dropped)
	}
	total := r.TotalBlamed()
	type row struct {
		c Cause
		d sim.Duration
	}
	rows := make([]row, 0, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		if r.Summary[c] > 0 {
			rows = append(rows, row{c, r.Summary[c]})
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		switch {
		case a.d > b.d:
			return -1
		case a.d < b.d:
			return 1
		}
		return 0
	})
	for _, rw := range rows {
		fmt.Fprintf(&sb, "  %-15s %6.1f%%  %v\n", rw.c, 100*float64(rw.d)/float64(total), rw.d)
	}
	n := len(r.Ops)
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		b := r.Ops[i]
		fmt.Fprintf(&sb, "  slowest[%d]: %s seq=%d lat=%v mostly %s (%.0f%% named)\n",
			i, b.Op.Kind, b.Op.Seq, b.Total, b.dominantCause(), 100*b.Named())
	}
	return sb.String()
}

// MergeBlameReports combines per-shard blame reports into one fleet-wide
// attribution: op and cause totals sum, the threshold reported is the
// highest per-shard cut (each shard's percentile was computed against its
// own latency distribution), and the detail rows are re-ranked slowest
// first across all shards. Nil inputs are skipped; merging nothing returns
// nil.
func MergeBlameReports(reports ...*BlameReport) *BlameReport {
	var out *BlameReport
	for _, r := range reports {
		if r == nil {
			continue
		}
		if out == nil {
			out = &BlameReport{Percentile: r.Percentile}
		}
		if r.Threshold > out.Threshold {
			out.Threshold = r.Threshold
		}
		out.TotalOps += r.TotalOps
		out.BlamedOps += r.BlamedOps
		out.Dropped += r.Dropped
		for c := Cause(0); c < NumCauses; c++ {
			out.Summary[c] += r.Summary[c]
		}
		out.Ops = append(out.Ops, r.Ops...)
	}
	if out == nil {
		return nil
	}
	slices.SortStableFunc(out.Ops, func(a, b OpBlame) int {
		switch {
		case a.Total > b.Total:
			return -1
		case a.Total < b.Total:
			return 1
		}
		return 0
	})
	return out
}

// Blame builds the blame report from the tracer's retained ops and events.
// A nil tracer returns nil.
//
// Both rings are read in place. The cost is two passes over the op ring
// (the histogram cut, then picking the ops at or above it) plus work
// proportional to the blamed tail: each blamed op's own events come from the
// event range stamped on its record, and each track wait it has is a binary
// search into that track's schedule. The schedules are the one O(event
// ring) step — a counting pass that groups ring positions by track — and
// it runs only if some blamed op waited on a track at all; a track is
// sorted, and then only if found out of order, the first time a blamed op
// waited on it. The working memory (about 16 bytes per ring event) comes from
// a pool shared by every tracer of the process, so a steady-state call
// allocates the report and its detail rows, and a fleet of tracers blamed in
// turn keeps one scratch between them rather than one each.
func (t *Tracer) Blame(opt BlameOptions) *BlameReport {
	if t == nil {
		return nil
	}
	if opt.Percentile <= 0 || opt.Percentile > 100 {
		opt.Percentile = 99
	}
	if opt.MaxOps <= 0 {
		opt.MaxOps = 64
	}
	ops := ringParts(t.ops, t.nOps)
	rep := &BlameReport{
		Percentile: opt.Percentile,
		TotalOps:   len(ops[0].items) + len(ops[1].items),
		Dropped:    t.DroppedEvents(),
	}
	if rep.TotalOps == 0 {
		return rep
	}

	// The cut uses the same log-bucketed histogram as the harness reports,
	// so "above P99" here and in a report row mean the same value.
	var h stats.Histogram
	for _, seg := range ops {
		for i := range seg.items {
			h.Record(seg.items[i].Latency())
		}
	}
	rep.Threshold = h.Percentile(opt.Percentile)

	s := blameScratchPool.Get().(*blameScratch)
	s.t, s.indexed, s.blamed = t, false, s.blamed[:0]
	defer func() {
		s.t = nil
		blameScratchPool.Put(s)
	}()
	for _, seg := range ops {
		for i := range seg.items {
			if seg.items[i].Latency() >= rep.Threshold {
				s.blamed = append(s.blamed, int32(seg.at+i))
			}
		}
	}
	if len(s.blamed) == 0 {
		return rep
	}

	rep.BlamedOps = len(s.blamed)
	rep.Ops = make([]OpBlame, 0, len(s.blamed))
	for _, p := range s.blamed {
		b := s.blameOp(t.ops[p])
		for c := Cause(0); c < NumCauses; c++ {
			rep.Summary[c] += b.Shares[c]
		}
		rep.Ops = append(rep.Ops, b)
	}
	slices.SortFunc(rep.Ops, func(a, b OpBlame) int {
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

// blameOp decomposes one op. Its own events are the ones carrying its
// sequence number inside the record's event range, less whatever part of the
// range the ring has already overwritten.
func (s *blameScratch) blameOp(op OpRecord) OpBlame {
	t := s.t
	b := OpBlame{Op: op, Total: op.Latency()}
	if b.Total <= 0 {
		return b
	}
	// A retried attempt's queue wait is retry amplification, not ordinary
	// host-queue pressure: the op is in the queue again only because its
	// previous attempt blew the client deadline.
	queueCause := CauseHostQueue
	if op.Attempt > 0 {
		queueCause = CauseRetry
	}
	b.Shares[queueCause] += op.QueueWait()

	ring := int64(len(t.ev))
	for n := max(op.evLo, t.nEv-ring); n < op.evHi; n++ {
		ev := &t.ev[n%ring]
		if ev.Op != op.Seq {
			continue
		}
		// Run time, clipped to the op's lifetime (an inline flush can
		// finish after the op's own completion is signalled).
		r0, r1 := clip(ev.Start, ev.End, op.Arrival, op.Done)
		if r1 > r0 {
			b.Shares[selfCause(*ev)] += r1.Sub(r0)
		}
		// Track wait: Issue → Start, walked against the track schedule.
		w0, w1 := clip(ev.Issue, ev.Start, op.Arrival, op.Done)
		if w1 > w0 {
			s.blameWindow(&b, ev.Track, w0, w1)
		}
	}

	var sum sim.Duration
	for c := Cause(0); c < NumCauses; c++ {
		sum += b.Shares[c]
	}
	switch {
	case sum < b.Total:
		// Residual time outside any event: the fixed request overhead and
		// firmware bookkeeping between events — controller CPU.
		b.Shares[CauseCPU] += b.Total - sum
	case sum > b.Total:
		// Nested spans (a flush span over its own flash ops) can double
		// count; rescale so shares read as fractions of the latency.
		var acc sim.Duration
		for c := Cause(0); c < NumCauses; c++ {
			b.Shares[c] = sim.Duration(int64(b.Shares[c]) * int64(b.Total) / int64(sum))
			acc += b.Shares[c]
		}
		b.Shares[CauseCPU] += b.Total - acc // rounding remainder
	}
	return b
}

// blameWindow attributes the wait window [w0, w1) on one track: overlap
// with a scheduled event is that event's fault; a gap is the fault of the
// next event to run (the gap exists because the waiting work didn't fit).
// The walk starts at the first scheduled event that can end after w0 —
// everything before it would be skipped one by one anyway.
func (s *blameScratch) blameWindow(b *OpBlame, tr Track, w0, w1 sim.Time) {
	t := s.t
	sched, maxEnd := s.schedule(tr)
	first, _ := slices.BinarySearchFunc(maxEnd, w0, func(end, w0 sim.Time) int {
		if end > w0 {
			return 1
		}
		return -1
	})
	cur := w0
	for _, p := range sched[first:] {
		ev := &t.ev[p]
		if ev.End <= cur || ev.Start == ev.End {
			continue
		}
		if ev.Start >= w1 {
			break
		}
		c := waitCause(*ev, b.Op.Seq)
		if ev.Start > cur { // gap before this occupant
			b.Shares[c] += ev.Start.Sub(cur)
			cur = ev.Start
		}
		if e := minTime(ev.End, w1); e > cur {
			b.Shares[c] += e.Sub(cur)
			cur = e
		}
		if cur >= w1 {
			return
		}
	}
	if cur < w1 {
		// Schedule not covered by events: on the CPU track that is plain
		// firmware time; elsewhere the tracer genuinely doesn't know.
		c := CauseUnknown
		if tr.Kind() == TrackCPU {
			c = CauseCPU
		}
		b.Shares[c] += w1.Sub(cur)
	}
}

// blameScratch is the working memory of one Blame call. It is pooled so that
// a periodic caller (a metrics scrape) reuses it instead of allocating a
// ring's worth of index on every call, and process-wide rather than per
// tracer so that the memory follows the number of concurrent calls, not the
// number of shards.
type blameScratch struct {
	t      *Tracer // the tracer being blamed, for the duration of the call
	blamed []int32 // op-ring positions of the ops at or above the cut

	// The per-track schedules, built by indexTracks on the first track wait
	// of a call: flat holds every live event's ring position grouped by
	// track (track id's group ends at end[id]), oldest first within a group.
	// sorted[id] is set once the group has been put in start order and
	// maxEnd filled in beside it: maxEnd[k] is the latest End among the
	// group's events up to flat[k], so it never decreases along a group.
	indexed bool
	ids     trackIDs
	tid     []int32 // per live event, oldest first: its track id
	end     []int32
	flat    []int32
	maxEnd  []sim.Time
	sorted  []bool
}

var blameScratchPool = sync.Pool{New: func() any { return new(blameScratch) }}

// schedule returns tr's events as ring positions in start order, with the
// running maximum of their End times. tr must be the track of a live event.
func (s *blameScratch) schedule(tr Track) ([]int32, []sim.Time) {
	t := s.t
	if !s.indexed {
		s.indexTracks()
	}
	id := s.ids.of(tr)
	lo := int32(0)
	if id > 0 {
		lo = s.end[id-1]
	}
	sched, maxEnd := s.flat[lo:s.end[id]], s.maxEnd[lo:s.end[id]]
	if s.sorted[id] {
		return sched, maxEnd
	}
	s.sorted[id] = true
	byStart := func(a, b int32) int {
		switch {
		case t.ev[a].Start < t.ev[b].Start:
			return -1
		case t.ev[a].Start > t.ev[b].Start:
			return 1
		}
		return 0
	}
	// Emission order is start order except where the scheduler filled a gap
	// behind an already-booked slot, so most tracks need no sort — and an
	// in-order one must not get one: the sort is unstable, and ties keep
	// their emission order only because it leaves sorted input alone.
	if !slices.IsSortedFunc(sched, byStart) {
		slices.SortFunc(sched, byStart)
	}
	var latest sim.Time
	for k, p := range sched {
		latest = max(latest, t.ev[p].End)
		maxEnd[k] = latest
	}
	return sched, maxEnd
}

// indexTracks groups the live events' ring positions by track with a
// counting sort: one pass over the ring to name each event's track and count
// it, a prefix sum, and one pass over the names to place the positions.
func (s *blameScratch) indexTracks() {
	s.indexed = true
	evs := ringParts(s.t.ev, s.t.nEv)
	n := len(evs[0].items) + len(evs[1].items)
	if cap(s.tid) < n {
		s.tid = make([]int32, n)
		s.flat = make([]int32, n)
		s.maxEnd = make([]sim.Time, n)
	}
	s.tid, s.flat, s.maxEnd = s.tid[:n], s.flat[:n], s.maxEnd[:n]

	s.ids.reset()
	s.end = s.end[:0]
	k := 0
	for _, seg := range evs {
		for i := range seg.items {
			id := s.ids.of(seg.items[i].Track)
			if int(id) == len(s.end) {
				s.end = append(s.end, 0)
			}
			s.end[id]++
			s.tid[k] = id
			k++
		}
	}

	// Turn the counts into each group's start; placing a position advances
	// it, which leaves every entry at its group's end.
	var sum int32
	for id, c := range s.end {
		s.end[id], sum = sum, sum+c
	}
	k = 0
	for _, seg := range evs {
		for i := range seg.items {
			id := s.tid[k]
			k++
			s.flat[s.end[id]] = int32(seg.at + i)
			s.end[id]++
		}
	}
	s.sorted = append(s.sorted[:0], make([]bool, len(s.end))...)
}

// trackIDs numbers tracks densely in first-seen order. It is an
// open-addressed table rather than a map because indexTracks looks up every
// event in the ring.
type trackIDs struct {
	slots []trackSlot // power-of-two length, at most half full
	shift uint32      // 32 − log2(len(slots))
	n     int32
}

type trackSlot struct {
	tr   Track
	next int32 // the track's id + 1; 0 marks an empty slot
}

// of returns tr's id, assigning the next one on first sight.
func (m *trackIDs) of(tr Track) int32 {
	if 2*int(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := uint32(len(m.slots) - 1)
	for i := uint32(tr) * 0x9E3779B1 >> m.shift; ; i = (i + 1) & mask {
		sl := &m.slots[i]
		if sl.next == 0 {
			m.n++
			*sl = trackSlot{tr, m.n}
			return m.n - 1
		}
		if sl.tr == tr {
			return sl.next - 1
		}
	}
}

func (m *trackIDs) reset() {
	clear(m.slots)
	m.n = 0
}

// grow doubles the table (the first call makes it) and re-seats the ids.
func (m *trackIDs) grow() {
	old := m.slots
	size := max(256, 2*len(old))
	m.slots = make([]trackSlot, size)
	m.shift = uint32(32 - bits.Len(uint(size-1)))
	mask := uint32(size - 1)
	for _, sl := range old {
		if sl.next == 0 {
			continue
		}
		i := uint32(sl.tr) * 0x9E3779B1 >> m.shift
		for m.slots[i].next != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = sl
	}
}

// selfCause classifies an op's own event: foreground flash work is the op
// itself (CauseSelf); background duty performed inline keeps its cause so
// an inline flush or compaction shows up by name.
func selfCause(ev Event) Cause {
	switch ev.Name {
	case EvWriteStall:
		return CauseWriteStall
	case EvReadRetry:
		return CauseFaultRetry
	case EvTimeout:
		return CauseTimeout
	case EvRetry:
		return CauseRetry
	case EvCPU:
		switch ev.Cause {
		case CauseHostRead, CauseHostWrite, CauseMeta:
			return CauseCPU
		}
		return ev.Cause
	}
	switch ev.Cause {
	case CauseHostRead, CauseHostWrite, CauseMeta:
		return CauseSelf
	}
	return ev.Cause
}

// waitCause classifies the event an op waited behind.
func waitCause(ev Event, seq int64) Cause {
	if ev.Op == seq {
		return CauseSelf // waiting behind our own earlier page
	}
	if ev.Name == EvReadRetry {
		return CauseFaultRetry
	}
	return ev.Cause
}

func clip(s, e, lo, hi sim.Time) (sim.Time, sim.Time) {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	return s, e
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
