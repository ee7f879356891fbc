package cluster

import (
	"errors"
	"fmt"
	"sync"

	"anykey/internal/cache"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
)

// ShardState is a shard's lifecycle position. A single-copy cluster's shards
// stay alive forever; the other states are entered by the replication policy
// in internal/cluster/fleet (kill, rebuild, remove) and honoured here by every
// whole-set operation.
type ShardState int32

const (
	// ShardAlive shards serve reads, take writes, and count toward quorum.
	ShardAlive ShardState = iota
	// ShardDead shards are skipped entirely: the device's contents are
	// unavailable and its payload memory has been released.
	ShardDead
	// ShardRebuilding shards take new writes (so the refill cannot race fresh
	// traffic) but serve no reads and count toward no quorum until the
	// rebuild commits.
	ShardRebuilding
	// ShardRetired shards were removed from the ring; they stay in the shard
	// set (IDs are never reused) but own nothing.
	ShardRetired
)

// String returns the state's name.
func (s ShardState) String() string {
	switch s {
	case ShardDead:
		return "dead"
	case ShardRebuilding:
		return "rebuilding"
	case ShardRetired:
		return "retired"
	}
	return "alive"
}

// KillCause records what killed a shard, mirroring the two terminal failure
// modes internal/fault injects on a single device: a power cut mid-traffic,
// or grown-bad block exhaustion retiring the flash array. Either way the
// device's contents are unavailable from the kill instant on; a rebuild
// replaces the hardware outright and re-fills it from the surviving replicas.
type KillCause int

const (
	KillPowerCut KillCause = iota
	KillGrownBad
)

// String returns the cause's name.
func (c KillCause) String() string {
	if c == KillGrownBad {
		return "grown-bad"
	}
	return "power-cut"
}

var (
	// ErrShardDown reports a request refused by its shard's lifecycle state —
	// a scan or routed operation on a dead shard — or a replicated operation
	// whose every owner is down.
	ErrShardDown = errors.New("cluster: shard down")
	// ErrExists reports a put-if-absent that found its key present.
	ErrExists = errors.New("cluster: key exists")
)

// Admit is a set of lifecycle states a request may run in.
type Admit uint8

// The admission sets: each names one lifecycle rule the routed paths apply.
const (
	// Present admits every shard with hardware, that is all but dead ones:
	// single-copy routed operations and scans.
	Present Admit = 1<<ShardAlive | 1<<ShardRebuilding | 1<<ShardRetired
	// Writable admits shards that take writes, alive or rebuilding:
	// replicated writes, migration copies and syncs.
	Writable Admit = 1<<ShardAlive | 1<<ShardRebuilding
	// Serving admits alive shards only: replicated reads, read repair,
	// stream scans and migration cleanup.
	Serving Admit = 1 << ShardAlive
	// Refilling admits a rebuilding shard only: the rebuild's refill.
	Refilling Admit = 1 << ShardRebuilding
)

// has reports whether s is in the set.
func (a Admit) has(s ShardState) bool { return a&(1<<s) != 0 }

// Request describes one engine request. It is a plain value, so building one
// per operation allocates nothing.
type Request struct {
	Kind trace.OpKind // OpPut, OpGet, OpDelete, OpScan or OpSync
	// Arrival is the instant in the shard's clock domain, host.WhenFree for
	// the closed loop. A sync ignores it: it drains the queue first.
	Arrival sim.Time
	Key     []byte // a scan's start key
	Value   []byte
	Limit   int // a scan's maximum pair count
	// IfAbsent makes a put probe for its key first and write only on a miss;
	// a hit answers ErrExists.
	IfAbsent bool
	// Stream marks migration and rebuild traffic, which the fleet accounts
	// apart from client requests: the shard's op count leaves it out.
	Stream bool
}

// Shard is one member device with its private engine and clock domain. The
// lock guards every field but ID, and only this file touches them: a request
// runs through Do, a whole-set operation through one of the locked accessors
// below, so every way into a shard takes the lock and honours the lifecycle
// state, and an observer never reads a device mid-operation.
type Shard struct {
	ID int // index in the shard set; never reused

	mu    sync.Mutex
	dev   device.KVSSD
	eng   *host.Engine
	tr    *trace.Tracer
	ops   int64 // client requests carried
	state ShardState
	cause KillCause // meaningful only while state is ShardDead
}

// Do runs one engine request. Under the shard lock it answers ErrShardDown
// when the shard's state is outside in, runs the engine, counts the request
// unless it is stream traffic, and copies any Value or Pairs out of the
// device's buffers: every byte leaving a shard belongs to the caller. It
// reports the state the request ran in (or was refused in).
func (sh *Shard) Do(req Request, in Admit) (host.Completion, ShardState, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.state
	if !in.has(st) {
		return host.Completion{}, st, ErrShardDown
	}
	comp, err := sh.run(req)
	if !req.Stream {
		sh.ops++
	}
	return comp, st, err
}

// run issues req to the engine and copies its result out. Caller holds mu.
func (sh *Shard) run(req Request) (host.Completion, error) {
	switch req.Kind {
	case trace.OpPut:
		if req.IfAbsent {
			comp, err := sh.eng.GetAt(req.Arrival, req.Key)
			if err == nil {
				return comp, ErrExists
			}
			if !errors.Is(err, kv.ErrNotFound) {
				return comp, err
			}
		}
		return sh.eng.PutAt(req.Arrival, req.Key, req.Value)
	case trace.OpGet:
		comp, err := sh.eng.GetAt(req.Arrival, req.Key)
		if err == nil {
			// Never nil: an empty value is present, not absent.
			comp.Value = append(make([]byte, 0, len(comp.Value)), comp.Value...)
		}
		return comp, err
	case trace.OpDelete:
		return sh.eng.DeleteAt(req.Arrival, req.Key)
	case trace.OpScan:
		comp, err := sh.eng.ScanAt(req.Arrival, req.Key, req.Limit)
		comp.Pairs = clonePairs(comp.Pairs)
		return comp, err
	case trace.OpSync:
		return sh.eng.Sync()
	}
	return host.Completion{}, fmt.Errorf("cluster: shard %d: no request kind %v", sh.ID, req.Kind)
}

// clonePairs copies scan results out of the device's buffers: one slice of
// pairs and one backing array for all their bytes, each key and value capped
// so an append by the caller cannot run into its neighbour.
func clonePairs(in []kv.Pair) []kv.Pair {
	n := 0
	for _, p := range in {
		n += len(p.Key) + len(p.Value)
	}
	buf := make([]byte, 0, n)
	out := make([]kv.Pair, len(in))
	for i, p := range in {
		k := len(buf)
		buf = append(buf, p.Key...)
		v := len(buf)
		buf = append(buf, p.Value...)
		out[i] = kv.Pair{Key: buf[k:v:v], Value: buf[v:len(buf):len(buf)]}
	}
	return out
}

// State returns the shard's lifecycle state and, while it is dead, the kill
// cause.
func (sh *Shard) State() (ShardState, KillCause) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state, sh.cause
}

// Transition moves the shard to state to when its current state is in from:
// a rebuild's commit (Refilling → alive) or a removal's (Writable → retired).
func (sh *Shard) Transition(from Admit, to ShardState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if from.has(sh.state) {
		sh.state = to
	}
}

// Kill marks the shard dead: a power cut or grown-bad exhaustion after which
// the hardware's contents are unavailable. The payload store is freed eagerly
// — a long-lived fleet must not retain dead shards' pages — which is safe
// because every path checks the state under the lock before touching the
// device, and a rebuild replaces the device outright.
func (sh *Shard) Kill(cause KillCause) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !Writable.has(sh.state) {
		return fmt.Errorf("cluster: shard %d is already %s", sh.ID, sh.state)
	}
	sh.state, sh.cause = ShardDead, cause
	device.ReleaseMemory(sh.dev)
	return nil
}

// newShard builds shard id over dev, its engine at queue depth with clocks
// starting at start and traced by tr (nil: untraced).
func newShard(id int, dev device.KVSSD, tr *trace.Tracer, depth int, start sim.Time) (*Shard, error) {
	eng, err := host.NewAt(dev, depth, start)
	if err != nil {
		return nil, err
	}
	eng.SetTracer(tr)
	return &Shard{ID: id, dev: dev, eng: eng, tr: tr}, nil
}

// replace swaps fresh's hardware in under a dead shard and marks it
// rebuilding. An untraced fresh shard keeps the previous tracer.
func (sh *Shard) replace(fresh *Shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state != ShardDead {
		return fmt.Errorf("cluster: shard %d is %s, not dead", sh.ID, sh.state)
	}
	sh.dev, sh.eng = fresh.dev, fresh.eng
	if fresh.tr != nil {
		sh.tr = fresh.tr
	}
	sh.state = ShardRebuilding
	return nil
}

// now returns the shard's clock.
func (sh *Shard) now() sim.Time {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Now()
}

// barrier drains the shard's in-flight requests and returns its clock; a
// dead shard's in-flight work is simply gone, and it reports 0.
func (sh *Shard) barrier() sim.Time {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == ShardDead {
		return 0
	}
	return sh.eng.Barrier()
}

// resetBreakdown clears the engine's queue-wait/service histograms.
func (sh *Shard) resetBreakdown() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eng.ResetBreakdown()
}

// row snapshots the shard's statistics row and engine breakdown, merging its
// flash-accesses-per-read histogram into ra. A dead shard's row keeps its op
// count and clock but no device state.
func (sh *Shard) row(ra *stats.IntHist) (ss ShardStats, qw, sv stats.Histogram) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ss = ShardStats{Shard: sh.ID, State: sh.state.String(), Rollup: Rollup{Ops: sh.ops, Now: sh.eng.Now()}}
	if sh.state == ShardDead {
		ss.Cause = sh.cause.String()
	} else {
		st := sh.dev.Stats()
		ss.Counters = st.Counters
		if st.Flash != nil {
			ss.Flash = st.Flash()
		}
		ss.Store = device.FootprintOf(sh.dev)
		ss.Cache = cacheStatsOf(sh.dev)
		if st.ReadAccesses != nil {
			ra.Merge(st.ReadAccesses)
		}
	}
	qw, sv = sh.eng.Breakdown()
	return ss, qw, sv
}

// cacheStatsOf snapshots the host-cache counters of a (possibly wrapped)
// shard device; nil when the shard runs uncached.
func cacheStatsOf(dev device.KVSSD) *cache.Stats {
	if c, ok := dev.(*cache.Cache); ok {
		st := c.CacheStats()
		return &st
	}
	return nil
}

// releaseMemory frees the device's page-payload memory once any in-flight
// operation on it has finished; release is idempotent.
func (sh *Shard) releaseMemory() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	device.ReleaseMemory(sh.dev)
}

// metadata returns the device's metadata report, nil for a dead shard.
func (sh *Shard) metadata() []device.MetaStructure {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == ShardDead {
		return nil
	}
	return sh.dev.Metadata()
}

// markSpan records a lifecycle span on cause's background lane of the
// shard's trace, from start to the shard's clock.
func (sh *Shard) markSpan(name trace.Name, cause trace.Cause, start sim.Time, arg int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tr.Span(trace.BGTrack(cause), name, cause, start, start, sh.eng.Now(), arg)
}

// markInstant records a lifecycle marker at the shard's clock.
func (sh *Shard) markInstant(name trace.Name, cause trace.Cause, arg int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tr.Instant(trace.BGTrack(cause), name, cause, sh.eng.Now(), arg)
}

// tracer returns the shard's tracer (nil when untraced).
func (sh *Shard) tracer() *trace.Tracer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tr
}

// blame computes the shard's tail-blame report; nil when untraced or dead.
func (sh *Shard) blame(opts trace.BlameOptions) *trace.BlameReport {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == ShardDead {
		return nil
	}
	return sh.tr.Blame(opts)
}
