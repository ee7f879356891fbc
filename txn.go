package anykey

// Cross-shard transactions on a Cluster: atomic Multi*-shaped batches via
// epoch-based two-phase commit over the shard set, OCC
// read-modify-write primitives (Incr/Append/CompareAndSwap and the general
// Txn closure) with validate-at-commit and deterministic bounded retry, and
// doppel-style phase splitting for contended keys. The protocol lives in
// internal/txn; this file adapts it to the cluster's backend and shapes the
// public surface.

import (
	"errors"
	"fmt"

	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/txn"
)

// Transaction-facing re-exports.
type (
	// TxnOptions tunes the transaction layer: OCC retry budget and virtual
	// backoff, plus the hot-key split-phase thresholds. The zero value is
	// valid (defaults documented on the fields).
	TxnOptions = txn.Options
	// Tx is one open optimistic transaction; see Cluster.BeginTxn.
	Tx = txn.Tx
	// TxnOp is one operation of an atomic batch: a Put of Key → Value, or a
	// Delete of Key when Delete is set.
	TxnOp = txn.Op
	// TxnStats is the transaction layer's cumulative counter snapshot.
	TxnStats = txn.Stats
)

// txnBackend adapts the cluster's backend to the txn.Backend the coordinator
// drives. All timing flows through the backend's shard clocks, so
// transactions inherit the simulator's determinism.
type txnBackend struct{ backend }

func (b txnBackend) Now(s int) Time { return b.ShardNow(s) }

func (b txnBackend) Get(key []byte) ([]byte, bool, error) {
	comp, _, err := b.GetOneAt(host.WhenFree, key)
	if errors.Is(err, kv.ErrNotFound) {
		return nil, false, nil
	}
	return comp.Value, err == nil, err
}

func (b txnBackend) SyncShards(shards []int) error {
	_, err := b.backend.SyncShards(shards)
	return err
}

func (b txnBackend) ScanShard(s int, start []byte, n int) ([]kv.Pair, error) {
	comp, err := b.ScanAt(s, b.ShardNow(s), start, n)
	if errors.Is(err, ErrShardDown) {
		// A dead member's records live on in its replicas' keyspaces;
		// recovery scans the survivors and skips the corpse.
		return nil, nil
	}
	return comp.Pairs, err
}

// atomicGate rejects atomic batches — and the OCC transactions whose
// multi-key commits take the same 2PC path — when replication cannot make
// the commit record decisive: Factor > 1 with read-one reads and
// WriteQuorum < Factor would let a lagging replica serve a pre-commit view
// of a key another replica already applied.
func (c *Cluster) atomicGate() error {
	r := c.opts.Replication
	if r.Factor > 1 && r.ReadMode == ReadOne && r.WriteQuorum < r.Factor {
		return fmt.Errorf("%w: Factor %d with ReadOne and WriteQuorum %d (need WriteQuorum == Factor or ReadRepair)",
			ErrAtomicUnsupported, r.Factor, r.WriteQuorum)
	}
	return nil
}

// BeginTxn opens one optimistic transaction. Get records the version of each
// key at first read; Commit validates every read version and applies the
// write set — through the atomic 2PC path when it spans more than one write.
// A validation failure reports ErrTxnConflict; retry by rebuilding the
// transaction (or use Txn, which retries a closure for you). Because a
// transaction's write set may span shards and commit through 2PC, the same
// replication configurations AtomicExec rejects are rejected here too
// (ErrAtomicUnsupported), up front rather than at commit.
func (c *Cluster) BeginTxn() (*Tx, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if err := c.atomicGate(); err != nil {
		return nil, err
	}
	return c.co.Begin(), nil
}

// Txn runs fn inside a transaction and commits, retrying ErrTxnConflict up
// to TxnOptions.MaxRetries times with capped-doubling virtual backoff. The
// returned duration is the simulated span: the merged cluster clock advance
// plus the virtual backoff the retries waited out. When the budget is
// exhausted the error matches both ErrTxnAborted and ErrTxnConflict. Like
// BeginTxn, replication configurations that cannot make a multi-key commit
// decisive are rejected with ErrAtomicUnsupported.
func (c *Cluster) Txn(fn func(*Tx) error) (Duration, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if err := c.atomicGate(); err != nil {
		return 0, err
	}
	before := c.Now()
	backoff, err := c.co.Run(fn)
	return c.Now().Sub(before) + backoff, err
}

// Incr atomically adds delta to the decimal counter at key (an absent key
// counts from zero) and returns the new value. On a split-phase hot key the
// returned value is the phase-local running total — exact again once the
// phase merges. Conflicts retry under the TxnOptions policy.
func (c *Cluster) Incr(key []byte, delta int64) (int64, Duration, error) {
	if err := c.gate(); err != nil {
		return 0, 0, err
	}
	before := c.Now()
	val, backoff, err := c.co.Incr(key, delta)
	return val, c.Now().Sub(before) + backoff, err
}

// Append atomically appends suffix to the value at key (an absent key
// appends to empty). Conflicts retry under the TxnOptions policy.
func (c *Cluster) Append(key, suffix []byte) (Duration, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	before := c.Now()
	backoff, err := c.co.Append(key, suffix)
	return c.Now().Sub(before) + backoff, err
}

// CompareAndSwap replaces key's value with new iff the current value equals
// old (nil or empty old means "expect absent"). A mismatch reports
// ErrTxnConflict without retrying — CAS hands the race to the caller.
func (c *Cluster) CompareAndSwap(key, old, new []byte) (Duration, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	before := c.Now()
	backoff, err := c.co.CompareAndSwap(key, old, new)
	return c.Now().Sub(before) + backoff, err
}

// RawWrite coordinates a non-transactional write of keys with the
// transaction layer: it merges any split-phase buffer covering one of the
// keys, runs write while the coordinator is quiesced — no transaction can
// validate or apply against a half-landed state — and bumps each key's OCC
// version, so an in-flight transaction that read a pre-write value aborts
// with ErrTxnConflict instead of committing a stale derivation over the
// write. Front ends that expose both raw puts/deletes and transactional
// commands on one keyspace (anykeyserver's SET/DEL next to INCR/CAS/EXEC)
// must route the raw writes through here; raw writes issued behind the
// coordinator's back are invisible to OCC validation. Versions are bumped
// even when write returns an error, since a failed batch may have applied
// some operations. Reads need no barrier — they cannot lose updates — but
// note that plain Get/MultiGet observe shard state directly and may see an
// atomic batch mid-apply; use a transaction when that matters.
func (c *Cluster) RawWrite(keys [][]byte, write func() error) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.co.RawWrite(keys, write)
}

// AtomicMultiPut is MultiPut with all-or-nothing semantics: the batch
// commits on every involved shard or none, surviving a crash at any point
// (recovery rolls a batch with a durable commit record forward and any
// other batch back). The call-level error carries the verdict — per-op Errs
// stay nil — and BatchResult.Atomic/TxnID identify the commit.
func (c *Cluster) AtomicMultiPut(keys, values [][]byte) (*BatchResult, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("%w: %d keys, %d values", ErrInvalidOptions, len(keys), len(values))
	}
	ops := make([]TxnOp, len(keys))
	for i := range keys {
		ops[i] = TxnOp{Key: keys[i], Value: values[i]}
	}
	return c.AtomicExec(ops)
}

// AtomicMultiDelete is MultiDelete with all-or-nothing semantics.
func (c *Cluster) AtomicMultiDelete(keys [][]byte) (*BatchResult, error) {
	ops := make([]TxnOp, len(keys))
	for i := range keys {
		ops[i] = TxnOp{Key: keys[i], Delete: true}
	}
	return c.AtomicExec(ops)
}

// AtomicExec commits a mixed put/delete batch atomically across shards. On
// replicated fleets the prepare/commit/apply writes each meet WriteQuorum;
// configurations where that cannot make the commit decisive are rejected
// with ErrAtomicUnsupported (see the sentinel).
func (c *Cluster) AtomicExec(ops []TxnOp) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if err := c.atomicGate(); err != nil {
		return nil, err
	}
	start := c.Now()
	id, err := c.co.Atomic(ops)
	if err != nil {
		return nil, err
	}
	done := c.Now()
	res := &BatchResult{
		Completions: make([]Completion, len(ops)),
		Shards:      make([]int, len(ops)),
		Errs:        make([]error, len(ops)),
		Start:       start,
		Done:        done,
		Atomic:      true,
		TxnID:       id,
	}
	for i, op := range ops {
		res.Shards[i] = c.ShardFor(op.Key)
		// The batch is atomic: every op spans the whole commit. Individual
		// flash-level instants are deliberately not surfaced — the unit of
		// completion is the batch.
		res.Completions[i] = Completion{Arrival: start, Issued: start, Done: done}
	}
	return res, nil
}

// TxnStats snapshots the transaction layer's cumulative counters.
func (c *Cluster) TxnStats() TxnStats { return c.co.Stats() }

// RecoverTxns scans the reserved transaction keyspace on every shard and
// resolves what a crash left behind: batches with a durable commit record
// roll forward (their writes re-applied and synced), batches without roll
// back (their intents discarded — user keys are never written before the
// commit record). Returns how many batches went each way. Call it after
// rebuilding a cluster from surviving devices.
func (c *Cluster) RecoverTxns() (forward, back int, err error) {
	if err := c.gate(); err != nil {
		return 0, 0, err
	}
	return c.co.Recover()
}
