package anykey

import (
	"fmt"
	"io"
	"sync/atomic"

	"anykey/internal/cluster"
	"anykey/internal/cluster/fleet"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/trace"
	"anykey/internal/txn"
)

// Cluster-facing re-exports.
type (
	// RouterPolicy selects how a cluster maps keys to shards.
	RouterPolicy = cluster.Policy
	// BatchResult reports one Multi* batch: per-operation completions,
	// shards and errors in input order, plus the merged batch span.
	BatchResult = cluster.BatchResult
	// ClusterStats is the merged statistics view of a cluster with its
	// per-shard breakdown.
	ClusterStats = cluster.Stats
	// ShardStats is one shard's row of a cluster stats rollup.
	ShardStats = cluster.ShardStats
)

// Routing policies for ClusterOptions.Router.
const (
	// RouteConsistent places shards on a consistent-hash ring (default).
	RouteConsistent = cluster.RouteConsistent
	// RouteModulo routes a key to hash(key) mod shards.
	RouteModulo = cluster.RouteModulo
)

// ClusterOptions configures a sharded multi-device cluster. The zero value
// is a valid 4-shard AnyKey+ cluster at queue depth 64 with consistent-hash
// routing.
type ClusterOptions struct {
	// Shards is the number of member devices (default 4).
	Shards int

	// QueueDepth is each shard's submission queue depth (default 64, the
	// paper's evaluation depth).
	QueueDepth int

	// Router selects the key→shard mapping (default RouteConsistent).
	Router RouterPolicy

	// VirtualNodes is the ring points per shard under RouteConsistent
	// (default 64).
	VirtualNodes int

	// Workers bounds how many shard sub-batches run concurrently inside one
	// Multi* call (default 1 = serial). Shards are independent virtual-time
	// simulations, so results are bit-identical at any setting; Workers
	// trades goroutines for wall-clock time only.
	Workers int

	// Device configures every member device. Each shard's internal
	// randomness is decorrelated by offsetting Device.Seed with the shard
	// index; all other fields apply uniformly. Fault injection
	// (Device.Faults) is not supported on clusters. Device.Trace enables
	// one tracer per shard, merged by WriteChromeTrace and Blame.
	Device Options

	// Txn tunes the transaction layer behind BeginTxn/Txn/Incr/Append/
	// CompareAndSwap and the Atomic* batch calls: the OCC retry budget and
	// virtual backoff, and the hot-key split-phase thresholds. The zero
	// value enables transactions with the documented defaults.
	Txn TxnOptions

	// Replication, when Factor ≥ 1, turns the cluster into an elastic
	// replicated fleet: every key lives on Factor distinct shards from the
	// ring's successor walk, writes acknowledge at WriteQuorum alive
	// replicas, reads are read-one with fallback (or read-repair), and the
	// fleet-only methods — AddShard, RemoveShard, KillShard, RebuildShard —
	// become available. Requires RouteConsistent (the walk is a ring
	// property). The zero value keeps the single-copy sharded cluster with
	// its bit-exact legacy behavior.
	Replication ReplicationOptions
}

// DefaultClusterOptions returns the fully normalized default cluster
// configuration (what the zero ClusterOptions resolves to).
func DefaultClusterOptions() ClusterOptions {
	var o ClusterOptions
	if err := o.Validate(); err != nil {
		panic(err) // unreachable: the zero ClusterOptions is documented valid
	}
	return o
}

// Validate checks every field and normalizes zero values to their defaults
// in place, sharing Options.Validate for the per-shard device
// configuration. Out-of-range values are reported wrapped in
// ErrInvalidOptions; unsupported combinations in ErrUnsupported.
func (o *ClusterOptions) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("%w: Shards %d is negative", ErrInvalidOptions, o.Shards)
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("%w: QueueDepth %d is negative", ErrInvalidOptions, o.QueueDepth)
	}
	if o.VirtualNodes < 0 {
		return fmt.Errorf("%w: VirtualNodes %d is negative", ErrInvalidOptions, o.VirtualNodes)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers %d is negative", ErrInvalidOptions, o.Workers)
	}
	switch o.Router {
	case RouteConsistent, RouteModulo:
	default:
		return fmt.Errorf("%w: unknown router policy %v", ErrInvalidOptions, o.Router)
	}
	if o.Device.Faults != nil {
		// A power cut tears down one device mid-operation via a panic the
		// facade catches; with per-batch worker goroutines that unwinding
		// cannot be delivered coherently, so fleet-level fault injection
		// stays a single-device tool for now.
		return fmt.Errorf("%w: fault injection on a cluster (open the shard as a single Device instead)", ErrUnsupported)
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.VirtualNodes == 0 {
		o.VirtualNodes = 64
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Replication.Factor < 0 {
		return fmt.Errorf("%w: Replication.Factor %d is negative", ErrInvalidOptions, o.Replication.Factor)
	}
	if o.Replication.WriteQuorum < 0 {
		return fmt.Errorf("%w: Replication.WriteQuorum %d is negative", ErrInvalidOptions, o.Replication.WriteQuorum)
	}
	if o.Replication.Factor > 0 {
		if o.Router != RouteConsistent {
			return fmt.Errorf("%w: replication requires RouteConsistent (replica sets are ring successor walks)", ErrUnsupported)
		}
		if o.Replication.Factor > o.Shards {
			return fmt.Errorf("%w: Replication.Factor %d exceeds Shards %d", ErrInvalidOptions, o.Replication.Factor, o.Shards)
		}
		if o.Replication.WriteQuorum > o.Replication.Factor {
			return fmt.Errorf("%w: Replication.WriteQuorum %d exceeds Factor %d", ErrInvalidOptions, o.Replication.WriteQuorum, o.Replication.Factor)
		}
		if o.Replication.WriteQuorum == 0 {
			o.Replication.WriteQuorum = o.Replication.Factor
		}
		switch o.Replication.ReadMode {
		case ReadOne, ReadRepair:
		default:
			return fmt.Errorf("%w: unknown read mode %v", ErrInvalidOptions, o.Replication.ReadMode)
		}
	} else if o.Replication.WriteQuorum > 0 {
		return fmt.Errorf("%w: Replication.WriteQuorum %d without Factor", ErrInvalidOptions, o.Replication.WriteQuorum)
	}
	if err := o.Txn.Validate(); err != nil {
		return fmt.Errorf("%w: Txn: %v", ErrInvalidOptions, err)
	}
	return o.Device.Validate()
}

// Cluster is an open sharded fleet of simulated KV-SSDs behind one
// keyspace: a hash router over N independent devices, each driven by its
// own queue-depth-N submission engine in its own virtual clock domain. The
// batch calls (MultiPut/MultiGet/MultiDelete) are the primary interface —
// they split the batch by shard, submit to every involved shard's engine,
// and complete at the maximum of the per-shard virtual completion times.
// With ClusterOptions.Replication set, the same shard set runs under a
// replication policy: every key lives on Factor shards and the fleet-only
// verbs (AddShard, RemoveShard, KillShard, RebuildShard) become available.
//
// Cross-shard time is merged, never propagated, so every result is
// deterministic and independent of ClusterOptions.Workers.
//
// Concurrency: per-key operations (Put/Get/Delete and the open-loop *At
// forms), per-shard ScanShardAt, Stats, Metadata, Now/ShardNow and Close
// are safe for concurrent use — each shard carries its own lock, so callers
// driving disjoint shards never contend and callers on one shard take turns
// (the network server calls them from every connection's goroutine). The
// Multi* batch calls share routing scratch and must not run concurrently
// with each other.
type Cluster struct {
	b      backend          // the shard set and what routes onto it
	f      *fleet.Fleet     // b again when it replicates, for the fleet-only verbs; else nil
	co     *txn.Coordinator // transaction layer over b
	opts   ClusterOptions
	closed atomic.Bool
}

// backend is everything a Cluster asks of its shard set. Two types satisfy
// it: *cluster.Cluster, the single-copy router, and *fleet.Fleet, which
// embeds one and shadows the routed methods with the replication policy.
// OpenCluster picks by Replication.Factor; nothing else in the facade knows
// which it holds.
type backend interface {
	Shards() int
	ShardFor(key []byte) int
	Now() Time
	ShardNow(s int) Time

	PutOneAt(arrival Time, key, value []byte) (Completion, int, error)
	GetOneAt(arrival Time, key []byte) (Completion, int, error)
	DeleteOneAt(arrival Time, key []byte) (Completion, int, error)
	ScanAt(s int, arrival Time, start []byte, n int) (Completion, error)
	MultiPut(keys, values [][]byte) (*BatchResult, error)
	MultiGet(keys [][]byte) (*BatchResult, error)
	MultiDelete(keys [][]byte) (*BatchResult, error)
	Apply(ops []cluster.BatchOp) error

	Sync() (Time, error)
	SyncShards(shards []int) (Time, error)
	Barrier() Time
	ResetBreakdowns()
	ReleaseMemory()

	CollectStats() ClusterStats
	Metadata() []MetaStructure
	MarkSpan(s int, name trace.Name, cause trace.Cause, start Time, arg int64)
	MarkInstant(s int, name trace.Name, cause trace.Cause, arg int64)
	Tracers() []*Tracer
	Blame(opts BlameOptions) *BlameReport
	ShardBlame(s int, opts BlameOptions) *BlameReport
}

// OpenCluster builds a cluster of opts.Shards identical devices (modulo the
// per-shard seed offset).
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	newShard := shardFactory(opts)
	devs := make([]device.KVSSD, 0, opts.Shards)
	var tracers []*trace.Tracer
	for s := 0; s < opts.Shards; s++ {
		dev, tr, err := newShard(s)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		devs = append(devs, dev)
		if tr != nil {
			tracers = append(tracers, tr)
		}
	}
	cl := &Cluster{opts: opts}
	if opts.Replication.Factor > 0 {
		f, err := fleet.New(devs, fleet.Config{
			QueueDepth:   opts.QueueDepth,
			VirtualNodes: opts.VirtualNodes,
			Repl:         opts.Replication,
			NewDevice:    newShard,
			Tracers:      tracers,
		})
		if err != nil {
			return nil, err
		}
		cl.b, cl.f = f, f
	} else {
		c, err := cluster.New(devs, cluster.Config{
			QueueDepth:   opts.QueueDepth,
			Policy:       opts.Router,
			VirtualNodes: opts.VirtualNodes,
			Workers:      opts.Workers,
			Tracers:      tracers,
		})
		if err != nil {
			return nil, err
		}
		cl.b = c
	}
	cl.co = txn.New(txnBackend{cl.b}, opts.Txn)
	return cl, nil
}

// shardFactory builds shard s's device (and tracer, under Device.Trace): the
// configured device seeded off the shard index. The fleet reuses it for
// expansion and replacement hardware, so a rebuilt member gets deterministic
// fresh hardware seeded exactly as OpenCluster seeded the original.
func shardFactory(opts ClusterOptions) fleet.DeviceFactory {
	return func(s int) (device.KVSSD, *trace.Tracer, error) {
		shardOpts := opts.Device
		shardOpts.Seed = opts.Device.Seed + int64(s)
		impl, err := openImpl(&shardOpts)
		if err != nil {
			return nil, nil, err
		}
		var tr *trace.Tracer
		if opts.Device.Trace != nil {
			tr = trace.New(trace.Config{
				Events: opts.Device.Trace.EventBuffer,
				Ops:    opts.Device.Trace.OpBuffer,
			})
			attachTracerTo(impl, tr)
		}
		return impl, tr, nil
	}
}

// gate rejects operations on a closed cluster.
func (c *Cluster) gate() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Shards returns the number of member devices (on a fleet: every member
// ever created, including dead and retired ones — member IDs are stable).
func (c *Cluster) Shards() int { return c.b.Shards() }

// Router returns the routing policy in force.
func (c *Cluster) Router() RouterPolicy { return c.opts.Router }

// ShardFor returns the shard a key routes to (on a fleet: the key's primary
// — the first member of its replica walk).
func (c *Cluster) ShardFor(key []byte) int { return c.b.ShardFor(key) }

// Now returns the merged cluster clock: the maximum over shard clocks.
func (c *Cluster) Now() Time { return c.b.Now() }

// ShardNow returns shard s's virtual clock, 0 for an s outside
// [0, Shards()). A wall-clock bridge reads it once per shard to anchor the
// mapping from real arrival times onto that shard's clock domain.
func (c *Cluster) ShardNow(s int) Time { return c.b.ShardNow(s) }

// MultiPut stores keys[i] → values[i] for every i, split by shard and
// completed at the merged batch time. Per-operation errors are in
// BatchResult.Errs; the returned error reports only call misuse.
func (c *Cluster) MultiPut(keys, values [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if len(keys) != len(values) {
		return nil, fmt.Errorf("%w: %d keys, %d values", ErrInvalidOptions, len(keys), len(values))
	}
	return c.b.MultiPut(keys, values)
}

// MultiGet reads every key. Absent keys report ErrNotFound in
// BatchResult.Errs; returned values are copies owned by the caller.
func (c *Cluster) MultiGet(keys [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.b.MultiGet(keys)
}

// MultiDelete removes every key (deleting an absent key succeeds).
func (c *Cluster) MultiDelete(keys [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.b.MultiDelete(keys)
}

// Put stores one pair on its shard and returns the simulated latency.
func (c *Cluster) Put(key, value []byte) (Duration, error) {
	comp, _, err := c.PutAt(host.WhenFree, key, value)
	return comp.Latency(), err
}

// Get reads one key from its shard. The returned bytes are the caller's.
func (c *Cluster) Get(key []byte) ([]byte, Duration, error) {
	comp, _, err := c.GetAt(host.WhenFree, key)
	return comp.Value, comp.Latency(), err
}

// Delete removes one key on its shard and returns the simulated latency.
func (c *Cluster) Delete(key []byte) (Duration, error) {
	comp, _, err := c.DeleteAt(host.WhenFree, key)
	return comp.Latency(), err
}

// PutAt is the open-loop Put: the request arrives at the routed shard at
// the given instant of that shard's clock domain, queueing behind whatever
// is already in flight there. The full completion and the shard index are
// returned — open-loop clients need arrival/issue/done to implement
// timeouts and retries.
func (c *Cluster) PutAt(arrival Time, key, value []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return c.b.PutOneAt(arrival, key, value)
}

// GetAt is the open-loop Get. The returned bytes are the caller's.
func (c *Cluster) GetAt(arrival Time, key []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return c.b.GetOneAt(arrival, key)
}

// DeleteAt is the open-loop Delete.
func (c *Cluster) DeleteAt(arrival Time, key []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return c.b.DeleteOneAt(arrival, key)
}

// ScanShardAt is the open-loop range query against one shard: up to n pairs
// with key ≥ start, drawn only from the keys routed to that shard. A
// cluster-wide scan fans one ScanShardAt out per shard and merges the
// sorted sub-results. The returned pairs' bytes are the caller's.
func (c *Cluster) ScanShardAt(shard int, arrival Time, start []byte, n int) (Completion, error) {
	if err := c.gate(); err != nil {
		return Completion{}, err
	}
	if shard < 0 || shard >= c.Shards() {
		return Completion{}, fmt.Errorf("%w: shard %d of %d", ErrInvalidOptions, shard, c.Shards())
	}
	return c.b.ScanAt(shard, arrival, start, n)
}

// Sync flushes every shard (a fleet-wide FLUSH) and returns the merged
// completion time. An open split phase merges first, so hot-key deltas the
// transaction layer is still batching become durable too.
func (c *Cluster) Sync() (Time, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if err := c.co.Flush(); err != nil {
		return 0, fmt.Errorf("anykey: split-phase flush: %w", err)
	}
	return c.b.Sync()
}

// Barrier drains every shard's in-flight requests and returns the merged
// cluster time.
func (c *Cluster) Barrier() (Time, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	return c.b.Barrier(), nil
}

// ResetBreakdowns clears every shard engine's queue-wait/service histograms,
// marking the start of a measurement phase (see Stats).
func (c *Cluster) ResetBreakdowns() {
	if !c.closed.Load() {
		c.b.ResetBreakdowns()
	}
}

// Stats merges every shard's live statistics into one rollup with a
// per-shard breakdown. The returned value is a point-in-time snapshot taken
// under each shard's lock, so Stats is safe to call concurrently with
// in-flight operations — a metrics scraper never observes a shard
// mid-operation.
func (c *Cluster) Stats() ClusterStats { return c.b.CollectStats() }

// Metadata merges the shards' metadata reports, summing same-named
// structures.
func (c *Cluster) Metadata() []MetaStructure { return c.b.Metadata() }

// Blame merges every shard's blame report into one cluster-wide
// attribution, taking each shard's lock in turn as ShardBlame does. Nil when
// the cluster was opened without Device.Trace.
func (c *Cluster) Blame(opts BlameOptions) *BlameReport { return c.b.Blame(opts) }

// ShardBlame computes one shard's blame report under that shard's lock, so
// it is safe while other goroutines drive the cluster — what a metrics
// scrape calls. Nil when the shard is untraced or dead, or when shard is
// outside [0, Shards()).
func (c *Cluster) ShardBlame(shard int, opts BlameOptions) *BlameReport {
	return c.b.ShardBlame(shard, opts)
}

// Tracers returns the per-shard tracers, or nil when the cluster was
// opened without Device.Trace. Open-loop clients use them to annotate shard
// op records with timeout/retry attribution.
func (c *Cluster) Tracers() []*Tracer { return c.b.Tracers() }

// WriteChromeTrace writes the merged fleet trace as Chrome trace_event
// JSON: shard i's rows appear as processes named "shardN …" at a disjoint
// pid range, on a common virtual-time axis. It fails when the cluster was
// opened without Device.Trace.
func (c *Cluster) WriteChromeTrace(w io.Writer) error {
	trs := c.Tracers()
	if trs == nil {
		return fmt.Errorf("%w: cluster opened without Device.Trace", ErrUnsupported)
	}
	return trace.WriteChromeTraceCluster(w, trs)
}

// Footprint sums the flash payload-store memory accounting across shards:
// what a raw store would retain versus what the configured stores do.
func (c *Cluster) Footprint() StoreFootprint {
	return c.Stats().Store
}

// CacheStats sums the shards' host-cache counters; ok is false when the
// cluster was opened without Device.Cache.
func (c *Cluster) CacheStats() (CacheStats, bool) {
	st := c.Stats().Cache
	if st == nil {
		return CacheStats{}, false
	}
	return *st, true
}

// Close marks the cluster closed; further operations return ErrClosed. It
// also eagerly frees every shard's page-payload memory (each shard under its
// own lock), so harnesses that open fleets in sequence keep only the live
// one's pages in the heap. It is idempotent and never fails (the simulation
// holds no other external resources).
func (c *Cluster) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.b.ReleaseMemory()
	}
	return nil
}
