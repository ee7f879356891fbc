// Package trace is the virtual-time event-tracing subsystem of the
// simulated KV-SSD. Every layer of the stack — the host submission engine,
// the FTL firmware and the NAND flash array — emits structured events into
// one ring-buffer collector: host operation lifecycle records
// (submit → queue → service), flash page reads/programs/erases tagged with
// the cause that issued them, controller-CPU occupancy, and background
// activity spans (flush, compaction, GC, recovery, write stalls). Three
// consumers sit on top: a Chrome trace_event JSON export (chrome.go) for
// chrome://tracing / Perfetto, a CSV dump (csv.go) for scripting, and a
// tail-latency blame report (blame.go) that attributes each slow operation's
// time to the activity it was scheduled behind.
//
// The disabled path costs nothing: a nil *Tracer is a valid receiver for
// every method, each of which begins with a nil check and allocates nothing.
// The enabled path is allocation-free too — events land in a preallocated
// ring that overwrites its oldest entries when full — so tracing never
// perturbs the virtual-time simulation it observes (it only reads the
// schedule, never changes it).
//
// The package is a leaf: it depends only on internal/sim and internal/stats
// so that every other layer may import it.
package trace

import (
	"fmt"

	"anykey/internal/sim"
)

// Cause classifies why time was spent: the issuing context of a flash or
// CPU event, and the attribution buckets of the blame report. The first six
// values mirror internal/nand's flash-operation causes (with the user cause
// split by direction); the rest name host-side and derived buckets.
type Cause uint8

// Cause values. HostRead/HostWrite are the foreground request path; Flush,
// Compaction, GC, Meta and Log are the firmware's background machinery
// (matching the flash counters of Table 3); Recovery labels post-power-cut
// remount I/O; FaultRetry the extra cell reads of injected transient read
// errors. HostQueue, WriteStall, CPU, Self and Unknown exist for blame
// attribution: time queued for a submission slot, time gated behind lagging
// background work, controller-CPU time (hashing, merging, fixed request
// overhead), the operation's own flash work, and anything left over.
// Timeout and Retry are the open-loop client's buckets: time an attempt ran
// past its client deadline, and queue wait incurred by a re-submitted
// (retried) attempt — the signature of retry amplification under overload.
// TxnPrepare, TxnValidateAbort and SplitMerge are the transaction layer's
// buckets: 2PC intent stamping, work thrown away by an OCC validation
// failure, and split-phase merges of batched commutative ops on hot keys.
//
// Ordering is load-bearing twice over: the first six values are pinned to
// internal/nand's flash-cause ordinals (see CauseFromFlash), and
// CauseUnknown must stay the last bucket before NumCauses (report consumers
// treat Shares[len-1] as the unnamed remainder). New causes go between
// CauseSelf and CauseTimeout.
const (
	CauseHostRead Cause = iota
	CauseHostWrite
	CauseFlush
	CauseCompaction
	CauseGC
	CauseMeta
	CauseLog
	CauseRecovery
	CauseFaultRetry
	CauseHostQueue
	CauseWriteStall
	CauseCPU
	CauseSelf
	CauseTxnPrepare
	CauseTxnValidateAbort
	CauseSplitMerge
	CauseTimeout
	CauseRetry
	CauseUnknown
	NumCauses
)

var causeNames = [NumCauses]string{
	"host-read", "host-write", "flush", "compaction", "gc", "meta", "log",
	"recovery", "fault-retry", "host-queue", "write-stall", "controller-cpu",
	"self", "txn-prepare", "txn-validate-abort", "split-merge",
	"timeout", "retry", "unknown",
}

// String returns the cause's lowercase name.
func (c Cause) String() string {
	if c >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// CauseFromFlash maps internal/nand's Cause ordinal (user, flush,
// compaction, gc, meta, log) to a trace Cause, splitting the user cause by
// transfer direction. nand cannot be imported from here (it imports this
// package); a test in internal/nand pins the orderings to each other.
func CauseFromFlash(flashCause int, write bool) Cause {
	switch flashCause {
	case 0:
		if write {
			return CauseHostWrite
		}
		return CauseHostRead
	case 1:
		return CauseFlush
	case 2:
		return CauseCompaction
	case 3:
		return CauseGC
	case 4:
		return CauseMeta
	case 5:
		return CauseLog
	}
	return CauseUnknown
}

// Name identifies what an event is, independent of why it happened.
type Name uint8

// Event names. The flash four (cell read, transfer in either direction,
// program, erase) occupy die and channel tracks; EvReadRetry is the
// fault-injected extra cell time of a transient read error; EvCPU is
// controller-CPU occupancy (key hashing, compaction merges). The span names
// mark firmware activity windows, and the last three are instant markers.
const (
	EvCellRead Name = iota
	EvReadXfer
	EvWriteXfer
	EvProgram
	EvErase
	EvReadRetry
	EvCPU
	EvFlush
	EvCompaction
	EvGC
	EvRecovery
	EvWriteStall
	EvPowerCut
	EvProgramFail
	EvEraseFail
	EvTimeout
	EvRetry
	EvTxnPrepare
	EvTxnAbort
	EvSplitMerge
	numNames
)

var eventNames = [numNames]string{
	"cell-read", "read-xfer", "write-xfer", "program", "erase", "read-retry",
	"cpu", "flush", "compaction", "gc", "recovery", "write-stall",
	"power-cut", "program-fail", "erase-fail", "timeout", "retry",
	"txn-prepare", "txn-abort", "split-merge",
}

// String returns the event name.
func (n Name) String() string {
	if n >= numNames {
		return fmt.Sprintf("event(%d)", int(n))
	}
	return eventNames[n]
}

// TrackKind is the class of resource or lane an event lives on.
type TrackKind uint8

// Track kinds: flash dies, flash channels, the controller CPU, host
// submission slots, and per-cause background lanes (spans that describe
// activity windows rather than hardware occupancy).
const (
	TrackChip TrackKind = iota + 1
	TrackChannel
	TrackCPU
	TrackSlot
	TrackBG
)

var trackKindNames = [...]string{"?", "chip", "channel", "cpu", "slot", "bg"}

// Track encodes (kind, index) in one comparable word: kind in the top byte,
// index in the low 24 bits.
type Track int32

// MakeTrack builds a track id from a kind and index.
func MakeTrack(k TrackKind, idx int) Track {
	return Track(uint32(k)<<24 | uint32(idx)&0x00FFFFFF)
}

// CPUTrack is the controller-CPU occupancy track.
var CPUTrack = MakeTrack(TrackCPU, 0)

// BGTrack returns the background lane for a cause, so flush, compaction, GC
// and stall spans render on separate rows.
func BGTrack(c Cause) Track { return MakeTrack(TrackBG, int(c)) }

// Kind returns the track's kind.
func (t Track) Kind() TrackKind { return TrackKind(uint32(t) >> 24) }

// Index returns the track's index within its kind.
func (t Track) Index() int { return int(uint32(t) & 0x00FFFFFF) }

// String renders "kind:index".
func (t Track) String() string {
	k := t.Kind()
	if int(k) < len(trackKindNames) {
		return fmt.Sprintf("%s:%d", trackKindNames[k], t.Index())
	}
	return fmt.Sprintf("track(%d):%d", int(k), t.Index())
}

// Event is one traced occurrence: a span of occupancy on a track
// (Start < End) or an instant marker (Start == End). Issue records when the
// work was dispatched to the resource, so Start − Issue is the time it
// queued there — the quantity the blame report attributes to whatever held
// the track during that window. Op links the event to the host operation in
// whose service it was emitted (0 = none); Arg carries per-name context (a
// PPA, a block id, a retry or merge count).
type Event struct {
	Issue sim.Time
	Start sim.Time
	End   sim.Time
	Op    int64
	Arg   int64
	Track Track
	Name  Name
	Cause Cause
}

// Duration is the event's span length.
func (e Event) Duration() sim.Duration { return e.End.Sub(e.Start) }

// OpKind is the host operation type of an OpRecord.
type OpKind uint8

// Host operation kinds.
const (
	OpPut OpKind = iota
	OpGet
	OpDelete
	OpScan
	OpSync
	numOpKinds
)

var opKindNames = [numOpKinds]string{"put", "get", "delete", "scan", "sync"}

// String returns the operation kind's name.
func (k OpKind) String() string {
	if k >= numOpKinds {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opKindNames[k]
}

// OpRecord is the lifecycle of one host operation: generated at Arrival,
// issued to the device at Issued (the difference is submission-queue wait),
// completed at Done. Seq is the tracer-wide sequence number linking the
// events emitted during its service. Attempt is the open-loop client's
// submission attempt number: 0 for a fresh arrival, k for the k-th retry
// after client timeouts (closed-loop ops are always 0).
//
// evLo and evHi bound the op's events: every event tagged with Seq was pushed
// at a total-event count in [evLo, evHi). BeginOp and EndOp stamp them — the
// simulation is single-goroutine, so everything emitted in between belongs
// to this op — and OpSpan, the one emitter that tags an op after its EndOp,
// stretches evHi over what it adds. Blame reads an op's events from that
// range instead of indexing the whole ring by op.
type OpRecord struct {
	Seq     int64
	Arrival sim.Time
	Issued  sim.Time
	Done    sim.Time
	Slot    int32
	Attempt int32
	Kind    OpKind
	Failed  bool

	evLo, evHi int64
}

// Latency is the operation's end-to-end time.
func (o OpRecord) Latency() sim.Duration { return o.Done.Sub(o.Arrival) }

// QueueWait is the time spent waiting for a submission slot.
func (o OpRecord) QueueWait() sim.Duration { return o.Issued.Sub(o.Arrival) }

// Config sizes a tracer's rings. Zero fields take the defaults.
type Config struct {
	// Events is the event-ring capacity (default 1<<18 ≈ 262k events,
	// ~14 MB). When full, the oldest events are overwritten and
	// DroppedEvents counts them.
	Events int
	// Ops is the op-record ring capacity (default 1<<16).
	Ops int
}

const (
	defaultEventCap = 1 << 18
	defaultOpCap    = 1 << 16
)

// scopeNone marks the cause-override scope as inactive.
const scopeNone Cause = 0xFF

// Tracer collects events and op records into fixed-capacity rings. It is
// not safe for concurrent use — the simulation is single-goroutine virtual
// time by design, each traced device owns its own tracer, and a device
// shared between goroutines shares one lock with its tracer, readers
// included (a cluster shard's Mu).
//
// A nil *Tracer is valid for every method and records nothing; call sites
// therefore need no guards beyond holding the pointer.
type Tracer struct {
	ev  []Event
	nEv int64 // total events ever pushed; ring index is nEv % cap

	ops  []OpRecord
	nOps int64

	seq     int64 // last allocated op sequence number
	curOp   int64 // op whose service is in flight (0 = none)
	pending OpRecord

	scope Cause // when ≠ scopeNone, overrides the cause of emitted events
}

// New returns an empty tracer with the configured ring capacities.
func New(cfg Config) *Tracer {
	if cfg.Events <= 0 {
		cfg.Events = defaultEventCap
	}
	if cfg.Ops <= 0 {
		cfg.Ops = defaultOpCap
	}
	return &Tracer{
		ev:    make([]Event, cfg.Events),
		ops:   make([]OpRecord, cfg.Ops),
		scope: scopeNone,
	}
}

// Enabled reports whether events are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// BeginOp opens a host operation record and tags subsequently emitted
// events with its sequence number. It returns the sequence number for the
// matching EndOp. On a nil tracer it returns 0.
func (t *Tracer) BeginOp(kind OpKind, slot int, arrival, issued sim.Time) int64 {
	if t == nil {
		return 0
	}
	t.seq++
	t.curOp = t.seq
	t.pending = OpRecord{
		Seq:     t.seq,
		Arrival: arrival,
		Issued:  issued,
		Slot:    int32(slot),
		Kind:    kind,
		evLo:    t.nEv,
	}
	return t.seq
}

// EndOp closes the operation opened by BeginOp and appends its record.
func (t *Tracer) EndOp(seq int64, done sim.Time, failed bool) {
	if t == nil || seq == 0 {
		return
	}
	if t.pending.Seq == seq {
		t.pending.Done = done
		t.pending.Failed = failed
		t.pending.evHi = t.nEv
		t.ops[t.nOps%int64(len(t.ops))] = t.pending
		t.nOps++
	}
	if t.curOp == seq {
		t.curOp = 0
	}
}

// LastOpSeq returns the sequence number of the most recently completed op
// record, or 0 when none. The open-loop harness reads it right after a
// submission completes to tag client-side timeout/retry events with the
// device-assigned op.
func (t *Tracer) LastOpSeq() int64 {
	if t == nil || t.nOps == 0 {
		return 0
	}
	return t.ops[(t.nOps-1)%int64(len(t.ops))].Seq
}

// MarkAttempt tags op record seq as submission attempt n (0 = fresh
// arrival). Called by the open-loop client after a retried submission
// completes, so the blame report can charge the attempt's queue wait to
// retry amplification instead of the host queue. A seq the ring already
// overwrote is silently ignored.
func (t *Tracer) MarkAttempt(seq int64, attempt int32) {
	if op := t.findOp(seq); op != nil {
		op.Attempt = attempt
	}
}

// findOp returns the retained record of op seq, scanning back from the
// newest entry (callers ask about the op that just completed), or nil.
func (t *Tracer) findOp(seq int64) *OpRecord {
	if t == nil || seq == 0 {
		return nil
	}
	n := min64(t.nOps, int64(len(t.ops)))
	for i := int64(1); i <= n; i++ {
		if op := &t.ops[(t.nOps-i)%int64(len(t.ops))]; op.Seq == seq {
			return op
		}
	}
	return nil
}

// OpSpan records a span tagged with an explicit op sequence number instead
// of the in-flight one — the open-loop client uses it to mark an attempt's
// deadline overrun [deadline, done] after EndOp has already closed the op.
// The cause scope is not applied: the caller names the cause it is charging.
// The op's record, when one is retained, has its event range stretched over
// the new event (an in-flight op's range is still open and needs nothing).
func (t *Tracer) OpSpan(track Track, name Name, cause Cause, op int64, issue, start, end sim.Time, arg int64) {
	if t == nil {
		return
	}
	t.ev[t.nEv%int64(len(t.ev))] = Event{
		Issue: issue, Start: start, End: end,
		Op: op, Arg: arg,
		Track: track, Name: name, Cause: cause,
	}
	t.nEv++
	if op != t.curOp {
		if rec := t.findOp(op); rec != nil {
			rec.evHi = t.nEv
		}
	}
}

// Span records one span event on a track. The in-flight op (if any) and the
// active cause scope are applied here, so emitters pass only what they know
// locally.
func (t *Tracer) Span(track Track, name Name, cause Cause, issue, start, end sim.Time, arg int64) {
	if t == nil {
		return
	}
	if t.scope != scopeNone {
		cause = t.scope
	}
	t.ev[t.nEv%int64(len(t.ev))] = Event{
		Issue: issue, Start: start, End: end,
		Op: t.curOp, Arg: arg,
		Track: track, Name: name, Cause: cause,
	}
	t.nEv++
}

// Instant records a zero-duration marker event.
func (t *Tracer) Instant(track Track, name Name, cause Cause, at sim.Time, arg int64) {
	t.Span(track, name, cause, at, at, at, arg)
}

// EnterScope overrides the cause of every event emitted until ExitScope —
// used to label recovery I/O, which flows through the ordinary read path.
func (t *Tracer) EnterScope(c Cause) {
	if t != nil {
		t.scope = c
	}
}

// ExitScope ends the cause override.
func (t *Tracer) ExitScope() {
	if t != nil {
		t.scope = scopeNone
	}
}

// Reset discards collected events and op records (sequence numbers keep
// counting). The harness resets at its warm-up/measurement barrier so
// traces and blame cover the measured phase only.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.nEv = 0
	t.nOps = 0
	t.curOp = 0
	t.pending = OpRecord{}
}

// EventCount returns how many events are currently retained.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	return int(min64(t.nEv, int64(len(t.ev))))
}

// DroppedEvents returns how many events the ring has overwritten.
func (t *Tracer) DroppedEvents() int64 {
	if t == nil {
		return 0
	}
	return t.nEv - min64(t.nEv, int64(len(t.ev)))
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return ringSlice(t.ev, t.nEv)
}

// Ops returns the retained op records, oldest first.
func (t *Tracer) Ops() []OpRecord {
	if t == nil {
		return nil
	}
	return ringSlice(t.ops, t.nOps)
}

// ringSeg is one contiguous run of a ring's live window: items[i] sits at
// ring position at+i.
type ringSeg[T any] struct {
	items []T
	at    int
}

// ringParts returns the live window of a ring that has seen n pushes as
// in-place segments, oldest first; the second is empty until the ring wraps.
func ringParts[T any](ring []T, n int64) [2]ringSeg[T] {
	c := int64(len(ring))
	if n <= c {
		return [2]ringSeg[T]{{items: ring[:n]}}
	}
	at := int(n % c)
	return [2]ringSeg[T]{{ring[at:], at}, {ring[:at], 0}}
}

// ringSlice copies the live window of a ring into a fresh slice in
// insertion order.
func ringSlice[T any](ring []T, n int64) []T {
	parts := ringParts(ring, n)
	if len(parts[0].items) == 0 {
		return nil
	}
	out := make([]T, 0, len(parts[0].items)+len(parts[1].items))
	return append(append(out, parts[0].items...), parts[1].items...)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
