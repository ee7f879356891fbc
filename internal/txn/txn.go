// Package txn is the transaction layer over the sharded KV cluster: atomic
// cross-shard batches, optimistic read-modify-write, and doppel-style
// split-phase execution for contended keys.
//
// The package is deliberately engine-agnostic: it drives any Backend — the
// non-replicated cluster, the replicated fleet, or a test fake — through a
// small routed-KV interface, and it never owns a clock of its own. All
// timing comes from the backend's per-shard virtual clocks, and cross-shard
// instants are merged by max exactly as the cluster layer merges them, so
// the same transaction stream produces bit-identical results on every run:
// the layer issues its operations one at a time under the coordinator's
// mutex and fans nothing out itself.
//
// # Atomic batches (two-phase commit)
//
// Atomic applies a mixed put/delete batch all-or-nothing across shards. The
// protocol writes durable intent records as ordinary KV pairs in a reserved
// keyspace (see intent.go), so it needs nothing from the device beyond what
// any journaled application would use:
//
//  1. prepare: one intent per involved shard, carrying that shard's
//     sub-batch, then FLUSH the involved shards;
//  2. commit point: a commit record on the coordinator shard (the lowest
//     involved shard), then FLUSH it — the batch is committed the instant
//     this record is durable;
//  3. apply: the real writes, in caller order, then FLUSH the involved
//     shards — only now may any cleanup begin, so a crash can never make a
//     cleanup delete durable while an apply write is lost;
//  4. cleanup: unsynced deletes of the intent and commit records. If a crash
//     loses them, Recover rolls the (already applied) batch forward again —
//     re-applying is idempotent.
//
// Recover resolves whatever a crash left behind: batches with a durable
// commit record roll forward, batches without one roll back by discarding
// their intents. Rollback never touches user data, because user keys are
// only written after the commit record is durable. When the commit record's
// own sync fails the batch is genuinely undecided — standard in-doubt 2PC
// semantics — and Atomic reports that with an error wrapping ErrInDoubt,
// never ErrAborted: recovery may roll such a batch forward.
//
// # OCC read-modify-write
//
// Begin/Get/Put/Commit implement classic optimistic concurrency control
// with a coordinator-local version table: Get records the key's version,
// Put buffers the write, and Commit validates that no read key's version
// moved before applying the write set and bumping versions. A validation
// failure returns ErrConflict; Run retries the whole body with
// capped-doubling virtual backoff (the RetryPolicy schedule) and gives up
// with an error wrapping both ErrAborted and ErrConflict.
//
// Versions live in the coordinator, not on the device, so they reset with
// the process; keys mutated behind the coordinator's back (raw cluster
// writes) are not conflict-checked. All transactional keys should be
// managed through one coordinator, the same single-caller rule the
// cluster's Multi* batches already impose. A front end that must mix raw
// writes and transactions on one keyspace routes the raw writes through
// RawWrite, which keeps the version table honest.
//
// # Split phase for hot keys
//
// Under Zipfian contention a handful of keys absorb most writes, and OCC
// serializes on them: every concurrent Incr aborts every other. The
// coordinator counts validation conflicts per key, and once a key crosses
// Options.HotThreshold it moves into the split phase: commutative ops
// (Incr, Append) on hot keys buffer their deltas in the coordinator instead
// of reading and validating, so they cannot conflict with each other. A
// buffered op still bumps its key's version the moment its commit absorbs
// it into the phase — buffering defers the write, not the conflict: any
// transaction that read the key earlier validates against the moved
// version and aborts, exactly as if the op had applied directly. The
// phase closes — buffered deltas merge into one write per hot key — after
// Options.SplitOps buffered ops, at an explicit Flush, or as soon as any
// transaction reads or non-commutatively writes a buffered key (reads must
// observe the merged value). During a phase, the value a buffered Incr
// returns is the phase-local running total, which concurrent buffering may
// make approximate; the merged on-device value is exact.
package txn

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Errors returned by the transaction layer; test with errors.Is.
var (
	// ErrConflict reports an OCC validation failure (a read key's version
	// moved between Get and Commit) or a CompareAndSwap value mismatch.
	ErrConflict = errors.New("txn: conflict")

	// ErrAborted reports a transaction that gave up after exhausting its
	// retry budget. Errors carrying it also carry ErrConflict.
	ErrAborted = errors.New("txn: aborted")

	// ErrInDoubt reports an atomic batch whose fate is undecided: the
	// commit record was written but its sync failed, so the record may or
	// may not be durable. The caller must not assume either outcome —
	// Recover resolves the batch (forward if the record survived, back
	// otherwise). Deliberately does NOT wrap ErrAborted.
	ErrInDoubt = errors.New("txn: commit in doubt")
)

// Options tunes the coordinator. The zero value means "use the defaults";
// call Validate to normalize.
type Options struct {
	// MaxRetries bounds how many times Run re-executes a conflicted
	// transaction before giving up (default 8; the open-loop RetryPolicy's
	// shape).
	MaxRetries int

	// Backoff is the virtual-time delay before the first retry; each
	// further retry doubles it (default 200µs).
	Backoff sim.Duration

	// MaxBackoff caps the doubling (default 16×Backoff).
	MaxBackoff sim.Duration

	// HotThreshold is the per-key validation-conflict count that moves a
	// key into the split phase. 0 means the default (8); a negative value
	// disables phase splitting entirely (pure serialized OCC).
	HotThreshold int

	// SplitOps closes the split phase — merging buffered commutative ops
	// into one write per hot key — after this many buffered ops
	// (default 64).
	SplitOps int
}

// Validate rejects out-of-range values and normalizes zeros to defaults in
// place.
func (o *Options) Validate() error {
	if o.MaxRetries < 0 {
		return fmt.Errorf("txn: MaxRetries %d is negative", o.MaxRetries)
	}
	if o.Backoff < 0 || o.MaxBackoff < 0 {
		return fmt.Errorf("txn: negative backoff %v/%v", o.Backoff, o.MaxBackoff)
	}
	if o.SplitOps < 0 {
		return fmt.Errorf("txn: SplitOps %d is negative", o.SplitOps)
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 8
	}
	if o.Backoff == 0 {
		o.Backoff = 200 * sim.Microsecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 16 * o.Backoff
	}
	if o.HotThreshold == 0 {
		o.HotThreshold = 8
	}
	if o.SplitOps == 0 {
		o.SplitOps = 64
	}
	return nil
}

// delay is the capped-doubling retry schedule: min(Backoff<<k, MaxBackoff).
func (o Options) delay(k int) sim.Duration {
	d := o.Backoff
	for i := 0; i < k && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	return d
}

// Op is one operation of a mixed batch (kv.Op). The alias keeps the name
// the facade's TxnOp and external callers use.
type Op = kv.Op

// Backend is the routed KV engine the coordinator drives. Implementations
// route each key to a shard, expose each shard's virtual clock, and apply
// mixed batches in input order. Get returns a caller-owned copy; ScanShard's
// pairs are valid only until the next backend call. A backend that traces
// its shards implements Marker too.
type Backend interface {
	Shards() int
	ShardFor(key []byte) int
	Now(s int) sim.Time
	Get(key []byte) (val []byte, found bool, err error)
	Apply(ops []Op) error
	SyncShards(shards []int) error
	ScanShard(s int, start []byte, n int) ([]kv.Pair, error)
}

// Marker is the tracing half of a backend, optional: the coordinator's
// lifecycle events (2PC prepare, validation abort, split-phase merge) land
// on shard s's trace, on cause's background lane. The coordinator cannot
// write to a shard's tracer itself — its own mutex does not keep the
// shard's other callers out — so the backend records the event under
// whatever guards the shard, reading the shard's clock in the same hold.
type Marker interface {
	// MarkSpan records a span from start to the shard's current clock.
	MarkSpan(s int, name trace.Name, cause trace.Cause, start sim.Time, arg int64)
	// MarkInstant records a marker at the shard's current clock.
	MarkInstant(s int, name trace.Name, cause trace.Cause, arg int64)
}

// noMarks stands in for an untraced backend.
type noMarks struct{}

func (noMarks) MarkSpan(int, trace.Name, trace.Cause, sim.Time, int64) {}
func (noMarks) MarkInstant(int, trace.Name, trace.Cause, int64)        {}

// Stats counts the coordinator's activity. Snapshot with Coordinator.Stats.
type Stats struct {
	Commits       int64 // committed transactions (atomic batches count one each)
	Aborts        int64 // transactions abandoned after exhausting retries
	Conflicts     int64 // individual validation failures (may be retried)
	Retries       int64 // re-executions after a conflict
	AtomicBatches int64 // committed 2PC batches
	Prepares      int64 // 2PC prepare rounds (intents stamped and synced)
	SplitMerges   int64 // split-phase merge flushes
	SplitOps      int64 // commutative ops absorbed by the split phase
	HotKeys       int64 // keys promoted to the hot set (cumulative)
	HotNow        int64 // current hot-set size
	RolledForward int64 // recovered batches replayed to completion
	RolledBack    int64 // recovered batches discarded (no commit record)
}

// pending is one hot key's split-phase buffer: the base value read once at
// the key's first buffering in the phase, plus the commutative accumulation
// since.
type pending struct {
	kind byte // 'i' (Incr) or 'a' (Append)
	base int64
	pre  []byte // Append base bytes
	sum  int64
	suf  []byte
	ops  int
}

// materialize renders the key's merged value at phase close.
func (p *pending) materialize() []byte {
	if p.kind == 'i' {
		return strconv.AppendInt(nil, p.base+p.sum, 10)
	}
	out := make([]byte, 0, len(p.pre)+len(p.suf))
	return append(append(out, p.pre...), p.suf...)
}

// Coordinator is the transaction manager over one backend. All state —
// the OCC version table, the contention counters, the split-phase buffers —
// is coordinator-local; its mutex serializes transactional access to the
// backend, so concurrent front-end connections may share one coordinator.
type Coordinator struct {
	mu    sync.Mutex
	be    Backend
	marks Marker
	opts  Options

	versions map[string]uint64
	nextID   uint64 // atomic-batch id allocator

	conflicts map[string]int // per-phase validation conflicts by key
	hot       map[string]bool
	pend      map[string]*pending
	pendKeys  []string // buffer-creation order, for deterministic merges
	phaseOps  int
	phaseGen  uint64 // bumped by every flush; detects mid-commit merges

	stats Stats
}

// New builds a coordinator over be. opts must already be validated.
func New(be Backend, opts Options) *Coordinator {
	marks, ok := be.(Marker)
	if !ok {
		marks = noMarks{}
	}
	return &Coordinator{
		be:        be,
		marks:     marks,
		opts:      opts,
		versions:  make(map[string]uint64),
		conflicts: make(map[string]int),
		hot:       make(map[string]bool),
		pend:      make(map[string]*pending),
	}
}

// Options returns the coordinator's normalized options.
func (co *Coordinator) Options() Options { return co.opts }

// Stats snapshots the activity counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	s := co.stats
	s.HotNow = int64(len(co.hot))
	return s
}

// wop is one buffered transaction write.
type wop struct {
	key   string
	kind  byte // 'p' put, 'd' delete, 'i' incr, 'a' append
	val   []byte
	base  int64  // incr: value read at Incr time
	pre   []byte // append: value read at Append time
	delta int64
	hot   bool // commutative op on a hot key: buffer at commit, skip validation
}

// absolute renders the write's final value (cold path; validation holds the
// base steady).
func (w *wop) absolute() []byte {
	switch w.kind {
	case 'i':
		return strconv.AppendInt(nil, w.base+w.delta, 10)
	case 'a':
		out := make([]byte, 0, len(w.pre)+len(w.val))
		return append(append(out, w.pre...), w.val...)
	}
	return w.val
}

// Tx is one optimistic transaction: a read-version snapshot plus a buffered
// write set, validated and applied at Commit. A Tx is not safe for
// concurrent use; distinct Txs on one coordinator are.
type Tx struct {
	co       *Coordinator
	reads    map[string]uint64
	readKeys []string // first-read order, for deterministic validation
	writes   []wop
	widx     map[string]int
	done     bool
}

// Begin opens a transaction.
func (co *Coordinator) Begin() *Tx {
	return &Tx{co: co, reads: make(map[string]uint64), widx: make(map[string]int)}
}

// errFinished guards against reuse of a committed or aborted Tx.
var errFinished = errors.New("txn: transaction already finished")

// Get returns the key's value as this transaction sees it: its own buffered
// write if present, otherwise the current value, recording the key's version
// for commit-time validation. Absent keys return kv.ErrNotFound. The value
// is caller-owned.
func (tx *Tx) Get(key []byte) ([]byte, error) {
	if tx.done {
		return nil, errFinished
	}
	k := string(key)
	if i, ok := tx.widx[k]; ok {
		w := &tx.writes[i]
		if w.kind == 'd' {
			return nil, kv.ErrNotFound
		}
		return w.absolute(), nil
	}
	co := tx.co
	co.mu.Lock()
	defer co.mu.Unlock()
	val, found, err := co.readLocked(tx, k, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, kv.ErrNotFound
	}
	return val, nil
}

// readLocked reads through the backend with the coordinator lock held,
// landing any split-phase buffer first (buffered deltas must be visible)
// and recording the key's version in the transaction's read set.
func (co *Coordinator) readLocked(tx *Tx, k string, key []byte) ([]byte, bool, error) {
	if _, buffered := co.pend[k]; buffered {
		if err := co.flushLocked(); err != nil {
			return nil, false, err
		}
	}
	val, found, err := co.be.Get(key)
	if err != nil {
		return nil, false, err
	}
	if _, seen := tx.reads[k]; !seen {
		tx.reads[k] = co.versions[k]
		tx.readKeys = append(tx.readKeys, k)
	}
	return val, found, nil
}

// setW buffers a write, replacing any earlier write to the same key.
func (tx *Tx) setW(k string, w wop) {
	w.key = k
	if i, ok := tx.widx[k]; ok {
		tx.writes[i] = w
		return
	}
	tx.widx[k] = len(tx.writes)
	tx.writes = append(tx.writes, w)
}

// Put buffers key→value (the value is copied).
func (tx *Tx) Put(key, value []byte) {
	tx.setW(string(key), wop{kind: 'p', val: append([]byte(nil), value...)})
}

// Delete buffers a delete of key.
func (tx *Tx) Delete(key []byte) {
	tx.setW(string(key), wop{kind: 'd'})
}

// Incr adds delta to the base-10 integer at key (absent counts as 0) and
// returns the resulting value as this transaction sees it. On a hot key the
// op is commutative: it buffers into the split phase at commit, skips
// validation, and the returned value is the phase-local running total.
func (tx *Tx) Incr(key []byte, delta int64) (int64, error) {
	if tx.done {
		return 0, errFinished
	}
	k := string(key)
	if i, ok := tx.widx[k]; ok {
		w := &tx.writes[i]
		if w.kind == 'i' {
			w.delta += delta
			return w.base + w.delta, nil
		}
		// A prior non-Incr write to the key: fold into a plain put.
		cur, err := parseCounter(w.absolute(), w.kind != 'd')
		if err != nil {
			return 0, err
		}
		tx.setW(k, wop{kind: 'p', val: strconv.AppendInt(nil, cur+delta, 10)})
		return cur + delta, nil
	}
	co := tx.co
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.hotLocked(k) {
		p, err := co.pendingFor(k, key, 'i')
		if err != nil {
			return 0, err
		}
		tx.setW(k, wop{kind: 'i', base: p.base + p.sum, delta: delta, hot: true})
		return p.base + p.sum + delta, nil
	}
	val, found, err := co.readLocked(tx, k, key)
	if err != nil {
		return 0, err
	}
	base, err := parseCounter(val, found)
	if err != nil {
		return 0, err
	}
	tx.setW(k, wop{kind: 'i', base: base, delta: delta})
	return base + delta, nil
}

// Append appends suffix to the value at key (absent counts as empty). Like
// Incr, appends to hot keys buffer commutatively at commit.
func (tx *Tx) Append(key, suffix []byte) error {
	if tx.done {
		return errFinished
	}
	k := string(key)
	if i, ok := tx.widx[k]; ok {
		w := &tx.writes[i]
		if w.kind == 'a' {
			w.val = append(w.val, suffix...)
			return nil
		}
		var base []byte
		if w.kind != 'd' {
			base = w.absolute()
		}
		tx.setW(k, wop{kind: 'p', val: append(base, suffix...)})
		return nil
	}
	co := tx.co
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.hotLocked(k) {
		if _, err := co.pendingFor(k, key, 'a'); err != nil {
			return err
		}
		tx.setW(k, wop{kind: 'a', val: append([]byte(nil), suffix...), hot: true})
		return nil
	}
	val, found, err := co.readLocked(tx, k, key)
	if err != nil {
		return err
	}
	var pre []byte
	if found {
		pre = append([]byte(nil), val...)
	}
	tx.setW(k, wop{kind: 'a', pre: pre, val: append([]byte(nil), suffix...)})
	return nil
}

// hotLocked reports whether k is in the split phase's hot set.
func (co *Coordinator) hotLocked(k string) bool {
	return co.opts.HotThreshold > 0 && co.hot[k]
}

// pendingFor returns k's split-phase buffer, creating it — which reads the
// key's base value through the backend, once per phase — on first use. A
// kind mismatch (Incr after Append in one phase) closes the phase first.
func (co *Coordinator) pendingFor(k string, key []byte, kind byte) (*pending, error) {
	if p := co.pend[k]; p != nil {
		if p.kind == kind {
			return p, nil
		}
		if err := co.flushLocked(); err != nil {
			return nil, err
		}
	}
	val, found, err := co.be.Get(key)
	if err != nil {
		return nil, err
	}
	p := &pending{kind: kind}
	if kind == 'i' {
		if p.base, err = parseCounter(val, found); err != nil {
			return nil, err
		}
	} else if found {
		p.pre = append([]byte(nil), val...)
	}
	co.pend[k] = p
	co.pendKeys = append(co.pendKeys, k)
	return p, nil
}

// Abort abandons the transaction without touching the backend.
func (tx *Tx) Abort() {
	tx.done = true
}

// Commit validates the read set and applies the write set. A moved read
// version returns an error wrapping ErrConflict and applies nothing (the
// caller may retry with a fresh Tx; Run does so with backoff). Write sets
// spanning more than one key commit through the atomic 2PC path, so a
// multi-key transaction is never partially visible, crash included;
// single-key write sets apply directly with plain-Put durability.
func (tx *Tx) Commit() error {
	if tx.done {
		return errFinished
	}
	tx.done = true
	co := tx.co
	co.mu.Lock()
	defer co.mu.Unlock()

	// Validate in first-read order so conflict accounting (and therefore
	// hot-key promotion) is deterministic.
	var conflicted []string
	for _, k := range tx.readKeys {
		if co.versions[k] != tx.reads[k] {
			conflicted = append(conflicted, k)
		}
	}
	if len(conflicted) > 0 {
		co.stats.Conflicts++
		for _, k := range conflicted {
			co.noteConflictLocked(k)
		}
		co.marks.MarkInstant(co.be.ShardFor([]byte(conflicted[0])),
			trace.EvTxnAbort, trace.CauseTxnValidateAbort, int64(len(conflicted)))
		return fmt.Errorf("txn: validation failed on %q: %w", conflicted[0], ErrConflict)
	}

	// Partition the write set: commutative ops on hot keys buffer into the
	// split phase; everything else applies now. A flush inside this
	// partition (cold write to a buffered key, a kind mismatch, or the
	// atomic path landing the phase) merges the ops buffered so far —
	// sync() notices via the phase generation and stops counting them
	// toward the still-open phase's close trigger.
	var apply []Op
	buffered, absorbed := 0, 0
	gen := co.phaseGen
	sync := func() {
		if co.phaseGen != gen {
			gen, buffered = co.phaseGen, 0
		}
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.hot && co.hotLocked(w.key) {
			p, err := co.pendingFor(w.key, []byte(w.key), w.kind)
			if err != nil {
				return err
			}
			sync() // a kind mismatch inside pendingFor closed the phase
			if w.kind == 'i' {
				p.sum += w.delta
			} else {
				p.suf = append(p.suf, w.val...)
			}
			p.ops++
			// The key's logical value moved the instant the delta joined
			// the phase — not at the eventual merge. Bumping here keeps
			// buffered commits visible to OCC validation: a transaction
			// that read the key before this commit must abort, or its
			// write would overwrite the merge and lose this op.
			co.versions[w.key]++
			buffered++
			absorbed++
			continue
		}
		// A cold (or demoted-path) write to a key with a live buffer must
		// land the phase first, or the merge would clobber this write.
		if _, live := co.pend[w.key]; live {
			if err := co.flushLocked(); err != nil {
				return err
			}
			sync()
		}
		apply = append(apply, Op{Key: []byte(w.key), Value: w.absolute(), Delete: w.kind == 'd'})
	}
	if len(apply) > 1 {
		if _, err := co.atomicLocked(apply); err != nil {
			return err
		}
		sync() // atomicLocked lands any open phase before preparing
	} else if len(apply) == 1 {
		if err := co.be.Apply(apply); err != nil {
			return err
		}
		co.versions[string(apply[0].Key)]++
	}
	co.stats.Commits++
	if absorbed > 0 {
		co.stats.SplitOps += int64(absorbed)
		co.phaseOps += buffered
		if co.phaseOps >= co.opts.SplitOps {
			return co.flushLocked()
		}
	}
	return nil
}

// noteConflictLocked bumps k's contention counter and promotes it to the
// hot set at the threshold.
func (co *Coordinator) noteConflictLocked(k string) {
	co.conflicts[k]++
	if co.opts.HotThreshold > 0 && !co.hot[k] && co.conflicts[k] >= co.opts.HotThreshold {
		co.hot[k] = true
		co.stats.HotKeys++
	}
}

// Flush closes the current split phase, merging every buffered commutative
// op into one write per hot key. Callers flush before durability points
// (Sync) and before reading counters out-of-band.
func (co *Coordinator) Flush() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.flushLocked()
}

// RawWrite coordinates a non-transactional write with the OCC state, for
// front ends that serve raw puts/deletes and transactional commands over
// one coordinator. It lands any split-phase buffer holding one of the keys
// (a later merge would otherwise clobber the raw write), runs write while
// holding the coordinator mutex — so no transaction can validate or apply
// against a half-landed state — and bumps every key's version so
// transactions that read the pre-write values conflict instead of
// committing stale derivations. Versions are bumped even when write fails:
// a failed batch may still have applied some of its ops, and a spurious
// conflict is safe where a missed one is not.
func (co *Coordinator) RawWrite(keys [][]byte, write func() error) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, k := range keys {
		if _, live := co.pend[string(k)]; live {
			if err := co.flushLocked(); err != nil {
				return err
			}
			break
		}
	}
	err := write()
	for _, k := range keys {
		co.versions[string(k)]++
	}
	return err
}

// flushLocked is Flush with the lock held: one merged write per buffered
// key, in buffer-creation order, then a phase close (conflict counters
// decay by half; the hot set is sticky).
func (co *Coordinator) flushLocked() error {
	if len(co.pendKeys) == 0 {
		return nil
	}
	ops := make([]Op, 0, len(co.pendKeys))
	for _, k := range co.pendKeys {
		ops = append(ops, Op{Key: []byte(k), Value: co.pend[k].materialize()})
	}
	_, shards := co.route(ops)
	starts := co.nows(shards)
	// Reset phase state before touching the backend: Apply on these keys
	// must not re-enter the flush. Versions are NOT bumped here — each
	// buffered op already bumped its key when it joined the phase, so the
	// merge materializes values whose version moves readers have already
	// been charged for.
	co.pend = make(map[string]*pending)
	co.pendKeys = nil
	co.phaseOps = 0
	co.phaseGen++
	for k, n := range co.conflicts {
		if n /= 2; n == 0 {
			delete(co.conflicts, k)
		} else {
			co.conflicts[k] = n
		}
	}
	if err := co.be.Apply(ops); err != nil {
		return fmt.Errorf("txn: split-phase merge: %w", err)
	}
	co.stats.SplitMerges++
	for i, s := range shards {
		co.marks.MarkSpan(s, trace.EvSplitMerge, trace.CauseSplitMerge, starts[i], int64(len(ops)))
	}
	return nil
}

// Run executes fn inside a transaction, committing at return and retrying
// the whole body on validation conflicts with capped-doubling virtual
// backoff. It returns the total backoff delay the retries accrued (zero on
// a first-try commit) so callers can fold it into reported latency.
func (co *Coordinator) Run(fn func(*Tx) error) (sim.Duration, error) {
	var backoff sim.Duration
	for attempt := 0; ; attempt++ {
		tx := co.Begin()
		if err := fn(tx); err != nil {
			tx.Abort()
			return backoff, err
		}
		err := tx.Commit()
		if err == nil {
			return backoff, nil
		}
		if !errors.Is(err, ErrConflict) {
			return backoff, err
		}
		if attempt >= co.opts.MaxRetries {
			co.mu.Lock()
			co.stats.Aborts++
			co.mu.Unlock()
			return backoff, fmt.Errorf("txn: %w after %d attempts: %w", ErrAborted, attempt+1, ErrConflict)
		}
		co.mu.Lock()
		co.stats.Retries++
		co.mu.Unlock()
		backoff += co.opts.delay(attempt)
	}
}

// Incr atomically adds delta to the base-10 integer at key and returns the
// new value, retrying conflicts per the options.
func (co *Coordinator) Incr(key []byte, delta int64) (int64, sim.Duration, error) {
	var out int64
	backoff, err := co.Run(func(tx *Tx) error {
		v, err := tx.Incr(key, delta)
		out = v
		return err
	})
	return out, backoff, err
}

// Append atomically appends suffix to the value at key.
func (co *Coordinator) Append(key, suffix []byte) (sim.Duration, error) {
	return co.Run(func(tx *Tx) error {
		return tx.Append(key, suffix)
	})
}

// CompareAndSwap writes new at key iff the current value equals old; an
// empty or nil old means "expect absent". A value mismatch returns
// ErrConflict without retrying (the compare genuinely failed); version
// conflicts from concurrent writers retry like any transaction.
func (co *Coordinator) CompareAndSwap(key, old, new []byte) (sim.Duration, error) {
	return co.Run(func(tx *Tx) error {
		cur, err := tx.Get(key)
		switch {
		case errors.Is(err, kv.ErrNotFound):
			if len(old) != 0 {
				return fmt.Errorf("txn: compare-and-swap of absent %q: %w", key, ErrConflict)
			}
		case err != nil:
			return err
		case len(old) == 0 || !bytes.Equal(cur, old):
			return fmt.Errorf("txn: compare-and-swap mismatch at %q: %w", key, ErrConflict)
		}
		tx.Put(key, new)
		return nil
	})
}

// route routes every op once: of[i] is the shard of ops[i], shards the
// distinct ones, ascending. (One allocation backs both.)
func (co *Coordinator) route(ops []Op) (of, shards []int) {
	n := len(ops)
	buf := make([]int, n, n+co.be.Shards())
	of, shards = buf[:n:n], buf[n:]
	for i := range ops {
		of[i] = co.be.ShardFor(ops[i].Key)
		if !slices.Contains(shards, of[i]) {
			shards = append(shards, of[i])
		}
	}
	slices.Sort(shards)
	return of, shards
}

// nows snapshots the listed shards' clocks.
func (co *Coordinator) nows(shards []int) []sim.Time {
	out := make([]sim.Time, len(shards))
	for i, s := range shards {
		out[i] = co.be.Now(s)
	}
	return out
}

// parseCounter reads a base-10 counter value; absent or empty counts as 0.
func parseCounter(val []byte, found bool) (int64, error) {
	if !found || len(val) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(string(val), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("txn: value %q is not a base-10 counter", val)
	}
	return n, nil
}
