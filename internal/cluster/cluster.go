// Package cluster is the host-side scale-out layer over the simulated
// KV-SSDs: a hash router spreading one keyspace across N independent shard
// devices, each driven by its own queue-depth-N host engine in its own
// virtual clock domain, with batched submission as the primary interface.
//
// The package is the one owner of the shard set. A Shard carries its device,
// engine, tracer, mutex, op tally and lifecycle state, and shard.go is the
// only code that touches them: every engine request goes through Shard.Do,
// which locks, admits by lifecycle state, counts and copies out. The set grows
// (AddShard) and swaps hardware (ReplaceShard) only through the Cluster, and
// every whole-set operation — Now, Barrier, Sync, CollectStats, Metadata,
// ScanAt, tracers — is written once here and honours shard state. Routing in
// this package is single-copy: each key lives on the one shard the fixed ring
// (or modulo) names, and a routed operation runs on any shard but a dead one.
// Replication — R owners per key, quorum, kill/rebuild, topology change — is
// a policy layered over the same shard set by internal/cluster/fleet.
//
// The layer reproduces the standard deployment shape for KV-SSD fleets
// (host-side sharding, as surveyed by Doekemeijer & Trivedi and exercised by
// partitioned stores like F2): no shard ever sees another shard's keys, so
// each shard remains a single-goroutine virtual-time simulation, and the
// cluster coordinates them only at observation points.
//
// # Clock domains and the virtual-time merger
//
// Every shard's engine starts at the simulation epoch and advances only when
// that shard carries requests, so the shards' clocks drift apart exactly as
// much as the workload is imbalanced. Cross-shard instants are merged, never
// propagated: a batch completes at the maximum of its per-shard completion
// times, the cluster clock Now() is the maximum over shard clocks, and
// throughput over a phase is measured against the slowest shard's elapsed
// virtual time. Because no merged value ever feeds back into any shard's
// schedule, executing shard sub-batches serially or on parallel goroutines
// produces bit-identical completions, stats and traces.
//
// # Batches
//
// MultiPut/MultiGet/MultiDelete split the caller's batch by routing each key,
// preserve the caller's order within every shard (two writes to one key in a
// batch resolve to the later one), submit every sub-batch closed-loop through
// the shard's engine, and report per-operation completions plus the merged
// batch span. Every byte a shard returns — a Get's value, a scan's pairs — is
// copied out under its lock and belongs to the caller.
//
// # Concurrency
//
// Every engine- or device-touching path takes its shard's mutex, so two rules
// fall out. First, concurrent callers that drive DISJOINT shards never contend
// and never perturb each other's virtual clocks, and callers on one shard
// queue on its mutex (the network server runs each command on its
// connection's goroutine, under the mutex of every shard the command
// reaches). Second, CollectStats snapshots each shard under that same mutex,
// so a metrics scraper may run concurrently with in-flight operations and
// always sees a consistent per-shard snapshot (it cannot observe a device
// mid-operation). The locks serialize access without reordering it —
// single-threaded callers see bit-identical results with or without a
// concurrent observer. Multi* batches share routing scratch and remain
// single-caller-at-a-time.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"anykey/internal/cache"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/xxhash"
)

// Policy selects how keys map to shards.
type Policy int

const (
	// RouteConsistent places shards on a hash ring with virtualNodes (64)
	// points each and routes a key to the next point clockwise from its
	// hash — the classic consistent-hashing layout, where growing or
	// shrinking a fleet would move only the keys between neighbouring
	// points.
	RouteConsistent Policy = iota
	// RouteModulo routes a key to hash(key) mod shards: perfectly balanced
	// for a fixed fleet, maximally disruptive to change.
	RouteModulo
)

var policyNames = map[Policy]string{
	RouteConsistent: "consistent",
	RouteModulo:     "modulo",
}

// String returns the policy's name.
func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MarshalText returns the policy's name, its command-line spelling.
func (p Policy) MarshalText() ([]byte, error) {
	n, ok := policyNames[p]
	if !ok {
		return nil, fmt.Errorf("cluster: no routing policy %d", int(p))
	}
	return []byte(n), nil
}

// UnmarshalText parses a policy name in any case, so -router flags can use
// flag.TextVar.
func (p *Policy) UnmarshalText(text []byte) error {
	for pol, n := range policyNames {
		if strings.EqualFold(n, string(text)) {
			*p = pol
			return nil
		}
	}
	return fmt.Errorf("unknown router %q (consistent | modulo)", text)
}

// Config parameterises a cluster over already-constructed shard devices.
type Config struct {
	// QueueDepth is each shard engine's submission queue depth (default 1).
	QueueDepth int

	// Policy is the routing policy (default RouteConsistent).
	Policy Policy

	// Workers bounds how many shard sub-batches run concurrently inside one
	// MultiPut/MultiGet/MultiDelete (default 1 = serial). Results are
	// bit-identical at any setting; Workers only trades goroutines for
	// wall-clock time.
	Workers int

	// Tracers, when non-nil, holds one tracer per shard; each is attached to
	// that shard's engine (the caller attaches the same tracer to the shard
	// device underneath). len(Tracers) must equal the shard count.
	Tracers []*trace.Tracer
}

// Cluster owns the shard set and routes one keyspace across it.
type Cluster struct {
	// shards is copy-on-write: AddShard publishes a longer slice, so readers
	// index a snapshot without locking and existing indices never move.
	shards  atomic.Pointer[[]*Shard]
	grow    sync.Mutex // serializes AddShard
	depth   int
	ring    Ring // only under RouteConsistent
	policy  Policy
	workers int

	// scratch buffers reused across batches: per-shard op-index lists and
	// the involved-shard list, so steady-state routing allocates nothing.
	byShard  [][]int
	involved []int
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint32
	member int32
}

// New builds a cluster over devs. Each device gets its own engine of
// cfg.QueueDepth starting at the simulation epoch.
func New(devs []device.KVSSD, cfg Config) (*Cluster, error) {
	if len(devs) == 0 {
		return nil, errors.New("cluster: no shard devices")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if _, ok := policyNames[cfg.Policy]; !ok {
		return nil, fmt.Errorf("cluster: unknown routing policy %v", cfg.Policy)
	}
	if cfg.Tracers != nil && len(cfg.Tracers) != len(devs) {
		return nil, fmt.Errorf("cluster: %d tracers for %d shards", len(cfg.Tracers), len(devs))
	}
	c := &Cluster{
		depth:   cfg.QueueDepth,
		policy:  cfg.Policy,
		workers: cfg.Workers,
		byShard: make([][]int, len(devs)),
	}
	shards := make([]*Shard, len(devs))
	for i, dev := range devs {
		var tr *trace.Tracer
		if cfg.Tracers != nil {
			tr = cfg.Tracers[i]
		}
		var err error
		if shards[i], err = newShard(i, dev, tr, c.depth, 0); err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	c.shards.Store(&shards)
	if cfg.Policy == RouteConsistent {
		c.ring = BuildRing(seqMembers(len(devs)))
	}
	return c, nil
}

// AddShard appends a shard over dev and returns it. Its clock starts at the
// merged cluster time: hardware plugged in "now", not at virtual zero. The
// routing ring is untouched — a grown shard owns keys only once the caller's
// placement policy (the fleet's migration) says so.
func (c *Cluster) AddShard(dev device.KVSSD, tr *trace.Tracer) (*Shard, error) {
	c.grow.Lock()
	defer c.grow.Unlock()
	old := c.all()
	sh, err := newShard(len(old), dev, tr, c.depth, c.Now())
	if err != nil {
		return nil, fmt.Errorf("cluster: add shard: %w", err)
	}
	grown := append(old[:len(old):len(old)], sh)
	c.shards.Store(&grown)
	return sh, nil
}

// ReplaceShard swaps replacement hardware in under dead shard id — same ID,
// clock starting at the merged cluster time — and marks it rebuilding. A nil
// tr keeps the shard's previous tracer registered but leaves the new engine
// untraced.
func (c *Cluster) ReplaceShard(id int, dev device.KVSSD, tr *trace.Tracer) error {
	fresh, err := newShard(id, dev, tr, c.depth, c.Now())
	if err != nil {
		return fmt.Errorf("cluster: replace shard %d: %w", id, err)
	}
	return c.Shard(id).replace(fresh)
}

// all returns the current shard-set snapshot.
func (c *Cluster) all() []*Shard { return *c.shards.Load() }

// Shard returns shard i, nil when i is outside [0, Shards()).
func (c *Cluster) Shard(i int) *Shard {
	if all := c.all(); i >= 0 && i < len(all) {
		return all[i]
	}
	return nil
}

// virtualNodes is the ring points per member under RouteConsistent. More
// points smooth the key balance at the cost of a larger ring.
const virtualNodes = 64

// Ring is the consistent-hash ring over a set of member IDs: virtualNodes
// points per member, sorted by hash. It is a pure function of the member
// IDs, so two processes — or the same fleet before and after a topology
// change — agree on every key's owners without coordination. The zero Ring
// is empty.
type Ring struct {
	points []ringPoint
}

// seqMembers returns the member IDs 0..n-1 — the fixed-fleet layout, where
// members are just shard indices.
func seqMembers(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// BuildRing hashes virtualNodes points per member onto the ring and sorts
// them. Point hashes come from the member ID and replica indices alone, so
// the ring is a pure function of the members and routing is reproducible
// across processes. For members 0..N-1 this is exactly the fixed-fleet ring
// the cluster has always built.
func BuildRing(members []int32) Ring {
	ring := make([]ringPoint, 0, len(members)*virtualNodes)
	var buf [8]byte
	for _, m := range members {
		binary.LittleEndian.PutUint32(buf[:4], uint32(m))
		for v := 0; v < virtualNodes; v++ {
			binary.LittleEndian.PutUint32(buf[4:], uint32(v))
			ring = append(ring, ringPoint{hash: hashBytes(buf[:]), member: m})
		}
	}
	// Sort by (hash, member) so equal hashes break ties deterministically.
	slices.SortFunc(ring, func(a, b ringPoint) int {
		switch {
		case a.hash != b.hash:
			if a.hash < b.hash {
				return -1
			}
			return 1
		case a.member != b.member:
			if a.member < b.member {
				return -1
			}
			return 1
		}
		return 0
	})
	return Ring{points: ring}
}

// Len returns the number of ring points.
func (r Ring) Len() int { return len(r.points) }

// successor returns the index of the first ring point at or clockwise-after
// hash h, wrapping at the top.
func (r Ring) successor(h uint32) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

// Owner returns the member owning key: the next point clockwise from the
// key's hash.
func (r Ring) Owner(key []byte) int32 { return r.OwnerHash(hashBytes(key)) }

// OwnerHash is Owner for a pre-computed routing hash.
func (r Ring) OwnerHash(h uint32) int32 { return r.points[r.successor(h)].member }

// Owners appends to dst the first n DISTINCT members met walking clockwise
// from the key's hash — the replica set for replication factor n. Fewer than
// n members on the ring yields all of them. The walk starts at the key's
// owner, so Owners(key, 1)[0] == Owner(key) and growing n only ever appends.
func (r Ring) Owners(dst []int32, key []byte, n int) []int32 {
	return r.OwnersHash(dst, hashBytes(key), n)
}

// OwnersHash is Owners for a pre-computed routing hash.
func (r Ring) OwnersHash(dst []int32, h uint32, n int) []int32 {
	start := r.successor(h)
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		// Replica sets are tiny, so a linear scan beats any set structure.
		if !slices.Contains(dst[base:], m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// Shards returns the number of shards ever created — dead and retired ones
// included, since shard IDs are stable.
func (c *Cluster) Shards() int { return len(c.all()) }

// Ring returns the routing ring built at New (empty under RouteModulo).
func (c *Cluster) Ring() Ring { return c.ring }

// ShardFor returns the shard a key routes to.
func (c *Cluster) ShardFor(key []byte) int {
	h := hashBytes(key)
	if c.policy == RouteModulo {
		return int(h % uint32(len(c.all())))
	}
	return int(c.ring.OwnerHash(h))
}

// Now returns the merged cluster clock: the maximum over shard clocks.
func (c *Cluster) Now() sim.Time {
	var m sim.Time
	for _, sh := range c.all() {
		m = sim.Max(m, sh.now())
	}
	return m
}

// ShardNow returns shard s's clock — the epoch a wall-clock bridge maps
// real arrival times onto — and 0 when s is outside [0, Shards()).
func (c *Cluster) ShardNow(s int) sim.Time {
	if sh := c.Shard(s); sh != nil {
		return sh.now()
	}
	return 0
}

// Barrier drains every live shard's in-flight requests, aligning each shard's
// slot clocks internally (clock domains stay independent — no shard's clock
// is pushed to another's), and returns the merged cluster time. A dead
// shard's in-flight work is simply gone.
func (c *Cluster) Barrier() sim.Time {
	var m sim.Time
	for _, sh := range c.all() {
		m = sim.Max(m, sh.barrier())
	}
	return m
}

// ResetBreakdowns clears every shard engine's queue-wait/service histograms
// (the harness calls this at its warm-up/measurement barrier).
func (c *Cluster) ResetBreakdowns() {
	for _, sh := range c.all() {
		sh.resetBreakdown()
	}
}

// BatchResult reports one batch: a completion, routed shard and error per
// input operation (input order preserved), plus the merged batch span.
type BatchResult struct {
	// Completions holds each operation's host completion; Values of Gets are
	// copied out of the device, so unlike single-device Gets they stay valid
	// after subsequent operations.
	Completions []host.Completion
	// Shards holds the shard index each operation routed to.
	Shards []int
	// Errs holds each operation's error (nil on success; kv.ErrNotFound for
	// a Get of an absent key).
	Errs []error
	// Start is the merged cluster time over the involved shards when the
	// batch was submitted; Done the merged completion time. The batch as a
	// whole "completes" at Done — the semantics of a scatter-gather
	// submission that acknowledges when its last shard does.
	Start, Done sim.Time

	// Atomic marks a batch that committed (or aborted) as one unit through
	// the transaction layer's 2PC path rather than best-effort per shard;
	// TxnID is then the commit's transaction identifier. Both are zero on
	// plain Multi* batches.
	Atomic bool
	TxnID  uint64
}

// Latency returns the merged batch span Done − Start.
func (b *BatchResult) Latency() sim.Duration { return b.Done.Sub(b.Start) }

// FirstErr returns the first per-operation error in input order, nil if all
// operations succeeded.
func (b *BatchResult) FirstErr() error {
	for _, err := range b.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// route partitions n operations by shard, filling the reusable per-shard
// index lists, and returns the involved shards in ascending order.
func (c *Cluster) route(n int, keyAt func(int) []byte) []int {
	for _, s := range c.involved {
		c.byShard[s] = c.byShard[s][:0]
	}
	c.involved = c.involved[:0]
	for i := 0; i < n; i++ {
		s := c.ShardFor(keyAt(i))
		if len(c.byShard[s]) == 0 {
			c.involved = append(c.involved, s)
		}
		c.byShard[s] = append(c.byShard[s], i)
	}
	// involved accumulated in first-use order; sort ascending so worker
	// scheduling and progress output are stable.
	slices.Sort(c.involved)
	return c.involved
}

// runBatch executes one partitioned batch: req(i) describes input operation
// i, which runs on its routed shard in input order within the shard.
// Sub-batches run serially or on up to c.workers goroutines; each shard is
// only ever driven by the one goroutine carrying its sub-batch, so results
// are identical either way.
func (c *Cluster) runBatch(n int, req func(i int) Request) *BatchResult {
	res := &BatchResult{
		Completions: make([]host.Completion, n),
		Shards:      make([]int, n),
		Errs:        make([]error, n),
	}
	shards := c.all()
	involved := c.route(n, func(i int) []byte { return req(i).Key })
	for _, s := range involved {
		for _, i := range c.byShard[s] {
			res.Shards[i] = s
		}
		res.Start = sim.Max(res.Start, shards[s].now())
	}
	runShard := func(s int) {
		for _, i := range c.byShard[s] {
			res.Completions[i], _, res.Errs[i] = shards[s].Do(req(i), Present)
		}
	}
	if c.workers <= 1 || len(involved) <= 1 {
		for _, s := range involved {
			runShard(s)
		}
	} else {
		sem := make(chan struct{}, c.workers)
		var wg sync.WaitGroup
		for _, s := range involved {
			wg.Add(1)
			sem <- struct{}{}
			go func(s int) {
				defer wg.Done()
				runShard(s)
				<-sem
			}(s)
		}
		wg.Wait()
	}
	res.Done = res.Start
	for _, comp := range res.Completions {
		if comp.Done > res.Done {
			res.Done = comp.Done
		}
	}
	return res
}

// MultiPut stores keys[i] → values[i] for every i, routed by key. Batch
// order is preserved within each shard, so duplicate keys resolve to the
// later write.
func (c *Cluster) MultiPut(keys, values [][]byte) (*BatchResult, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("cluster: MultiPut with %d keys and %d values", len(keys), len(values))
	}
	return c.runBatch(len(keys), func(i int) Request {
		return Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: keys[i], Value: values[i]}
	}), nil
}

// MultiGet reads every key. Absent keys report kv.ErrNotFound in Errs;
// returned values belong to the caller.
func (c *Cluster) MultiGet(keys [][]byte) (*BatchResult, error) {
	return c.runBatch(len(keys), func(i int) Request {
		return Request{Kind: trace.OpGet, Arrival: host.WhenFree, Key: keys[i]}
	}), nil
}

// MultiDelete removes every key (deleting an absent key succeeds).
func (c *Cluster) MultiDelete(keys [][]byte) (*BatchResult, error) {
	return c.runBatch(len(keys), func(i int) Request {
		return Request{Kind: trace.OpDelete, Arrival: host.WhenFree, Key: keys[i]}
	}), nil
}

// Apply runs a mixed put/delete batch, routed by key with batch order
// preserved within each shard — MultiPut semantics for a batch whose
// operations aren't all the same verb — and returns the first per-operation
// error in input order. The transaction layer expresses intent stamping,
// commits and cleanups as such batches so a single code path carries them.
func (c *Cluster) Apply(ops []kv.Op) error {
	return c.runBatch(len(ops), func(i int) Request {
		if ops[i].Delete {
			return Request{Kind: trace.OpDelete, Arrival: host.WhenFree, Key: ops[i].Key}
		}
		return Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: ops[i].Key, Value: ops[i].Value}
	}).FirstErr()
}

// SyncShards flushes only the listed shards and returns the merged
// completion time — the transaction layer's targeted durability barrier
// (a commit needs its involved shards synced, not the whole fleet). Dead and
// retired shards are skipped: no hardware, or nothing owned, to flush.
func (c *Cluster) SyncShards(shards []int) (sim.Time, error) {
	all := c.all()
	var done sim.Time
	var firstErr error
	for _, s := range shards {
		if s < 0 || s >= len(all) {
			return done, fmt.Errorf("cluster: SyncShards: shard %d of %d", s, len(all))
		}
		comp, _, err := all[s].Do(Request{Kind: trace.OpSync}, Writable)
		if errors.Is(err, ErrShardDown) {
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shard %d sync: %w", s, err)
		}
		done = sim.Max(done, comp.Done)
	}
	return done, firstErr
}

// PutOneAt routes one pair to its shard, arriving at the given instant of
// that shard's clock domain — host.WhenFree for the closed loop; shard clocks
// are independent, so open-loop callers track a per-shard epoch. The shard
// index is returned so callers can account routing. The *OneAt family is the
// single-key counterpart of the Multi* batches, and the fleet implements the
// same methods over its replicated operations. A dead shard answers
// ErrShardDown.
func (c *Cluster) PutOneAt(arrival sim.Time, key, value []byte) (host.Completion, int, error) {
	return c.routed(Request{Kind: trace.OpPut, Arrival: arrival, Key: key, Value: value})
}

// GetOneAt routes one read to its shard; the value belongs to the caller.
func (c *Cluster) GetOneAt(arrival sim.Time, key []byte) (host.Completion, int, error) {
	return c.routed(Request{Kind: trace.OpGet, Arrival: arrival, Key: key})
}

// DeleteOneAt routes one delete to its shard.
func (c *Cluster) DeleteOneAt(arrival sim.Time, key []byte) (host.Completion, int, error) {
	return c.routed(Request{Kind: trace.OpDelete, Arrival: arrival, Key: key})
}

// routed runs req on the shard its key routes to.
func (c *Cluster) routed(req Request) (host.Completion, int, error) {
	s := c.ShardFor(req.Key)
	comp, _, err := c.Shard(s).Do(req, Present)
	return comp, s, err
}

// ScanAt is the open-loop range query against ONE shard: scans see only the
// keys routed to that shard, so a cluster-wide scan fans one ScanAt out to
// every shard and merges the sorted sub-results (the network server's SCAN
// does exactly this, one shard after another; replication does not merge
// scans either). The pairs belong to the caller. A dead shard reports
// ErrShardDown.
func (c *Cluster) ScanAt(s int, arrival sim.Time, start []byte, n int) (host.Completion, error) {
	comp, _, err := c.Shard(s).Do(Request{Kind: trace.OpScan, Arrival: arrival, Key: start, Limit: n}, Present)
	return comp, err
}

// Sync flushes every live shard (an NVMe FLUSH fanned out cluster-wide) and
// returns the merged completion time.
func (c *Cluster) Sync() (sim.Time, error) {
	all := c.all()
	ids := make([]int, len(all))
	for i := range ids {
		ids[i] = i
	}
	return c.SyncShards(ids)
}

// Rollup is one shard's contribution to the cluster statistics, and the
// cluster-wide totals merged from them: the device's activity counters and
// flash traffic, the requests the shard carried, its clock, and its host-side
// memory. The metrics endpoint exports each field per shard, so a scrape can
// watch one shard's GC debt grow while its neighbours idle.
type Rollup struct {
	device.Counters
	Flash nand.Counters

	Ops int64    // requests carried
	Now sim.Time // the shard's clock; in a total, the merged clock (max)

	// Store is the flash payload-store memory accounting.
	Store nand.StoreFootprint
	// Cache holds the host-cache counters; nil when no shard runs a host
	// cache.
	Cache *cache.Stats
}

// Add merges o into r: every count sums and Now takes the later clock. The
// result never shares o's Cache.
func (r Rollup) Add(o Rollup) Rollup {
	r.Counters = r.Counters.Add(o.Counters)
	r.Flash = r.Flash.Add(o.Flash)
	r.Ops += o.Ops
	r.Now = sim.Max(r.Now, o.Now)
	r.Store = r.Store.Add(o.Store)
	if o.Cache != nil {
		sum := *o.Cache
		if r.Cache != nil {
			sum = r.Cache.Add(sum)
		}
		r.Cache = &sum
	}
	return r
}

// ShardStats is the per-shard slice of a cluster stats rollup.
type ShardStats struct {
	Shard int
	// State is the shard's lifecycle state name ("alive", "dead",
	// "rebuilding", "retired"); Cause the kill cause, dead shards only. A dead
	// shard's row keeps its op count and clock but no device state — the
	// hardware is gone.
	State string
	Cause string
	Rollup
}

// Stats is the merged statistics view of a cluster: fleet-wide rollups plus
// the per-shard breakdown they were merged from.
type Stats struct {
	Shards int
	Rollup

	// ReadAccesses merges every shard's flash-accesses-per-read histogram.
	ReadAccesses *stats.IntHist

	// QueueWait and Service merge every shard engine's latency breakdown.
	QueueWait, Service stats.Histogram

	PerShard []ShardStats
}

// CollectStats merges every shard's live statistics into one rollup. Each
// shard is snapshotted under its mutex, so CollectStats is safe to call
// concurrently with in-flight operations: the scraper observes every shard
// between operations, never mid-flight.
func (c *Cluster) CollectStats() Stats {
	shards := c.all()
	out := Stats{
		Shards:       len(shards),
		ReadAccesses: stats.NewIntHist(8),
		PerShard:     make([]ShardStats, 0, len(shards)),
	}
	for _, sh := range shards {
		ss, qw, sv := sh.row(out.ReadAccesses)
		out.PerShard = append(out.PerShard, ss)
		out.Rollup = out.Rollup.Add(ss.Rollup)
		out.QueueWait.Merge(&qw)
		out.Service.Merge(&sv)
	}
	return out
}

// ReleaseMemory eagerly frees every shard's page-payload memory (cluster
// close), each shard under its mutex so any in-flight operation on it
// finishes first. Sequential multi-fleet harness runs rely on this to keep
// only the live fleet's pages in the heap. Dead shards were already released
// at kill time; release is idempotent.
func (c *Cluster) ReleaseMemory() {
	for _, sh := range c.all() {
		sh.releaseMemory()
	}
}

// Metadata merges the live shards' metadata reports: structures with the same
// name and placement sum their bytes, keeping the first shard's row order.
func (c *Cluster) Metadata() []device.MetaStructure {
	var out []device.MetaStructure
	index := map[string]int{}
	for _, sh := range c.all() {
		for _, m := range sh.metadata() {
			key := m.Name
			if !m.InDRAM {
				key += "\x00flash"
			}
			if i, ok := index[key]; ok {
				out[i].Bytes += m.Bytes
			} else {
				index[key] = len(out)
				out = append(out, m)
			}
		}
	}
	return out
}

// MarkSpan records a lifecycle span on shard i's trace, on cause's
// background lane, from start to the shard's current clock. Like every
// write to the shard's tracer it happens under the shard lock: callers above
// the shard set (the transaction coordinator) run on their own goroutines,
// beside the shard's other users.
func (c *Cluster) MarkSpan(i int, name trace.Name, cause trace.Cause, start sim.Time, arg int64) {
	c.Shard(i).markSpan(name, cause, start, arg)
}

// MarkInstant records a lifecycle marker on shard i's trace at the shard's
// current clock; see MarkSpan.
func (c *Cluster) MarkInstant(i int, name trace.Name, cause trace.Cause, arg int64) {
	c.Shard(i).markInstant(name, cause, arg)
}

// Tracers returns the per-shard tracers (nil when the cluster is untraced).
func (c *Cluster) Tracers() []*trace.Tracer {
	var out []*trace.Tracer
	for _, sh := range c.all() {
		tr := sh.tracer()
		if tr == nil {
			return nil
		}
		out = append(out, tr)
	}
	return out
}

// ShardBlame computes shard i's tail-blame report under the shard's lock —
// the lock every operation on the shard holds while it emits into the
// tracer, so the report never reads a ring mid-write, whichever goroutine
// asks. The tracer is read under the same hold, so a rebuilt shard is blamed
// from its replacement's trace. The hold is one Tracer.Blame: two passes over
// the op ring, at most one over the event ring, and work proportional to the
// blamed tail (a couple of milliseconds on full default rings). An untraced
// shard reports nil, and so does a dead one — its trace describes hardware
// that is gone — and so does an i outside [0, Shards()).
func (c *Cluster) ShardBlame(i int, opts trace.BlameOptions) *trace.BlameReport {
	if sh := c.Shard(i); sh != nil {
		return sh.blame(opts)
	}
	return nil
}

// Blame merges every shard's blame report into one cluster-wide attribution
// (nil when no shard has one to give).
func (c *Cluster) Blame(opts trace.BlameOptions) *trace.BlameReport {
	reports := make([]*trace.BlameReport, c.Shards())
	for i := range reports {
		reports[i] = c.ShardBlame(i, opts)
	}
	return trace.MergeBlameReports(reports...)
}

// hashBytes is the routing hash. xxhash32 with a fixed seed: fast, stable
// across processes, and unrelated to the devices' internal hash-list seeds
// so routing cannot correlate with in-device placement.
func hashBytes(b []byte) uint32 { return xxhash.Sum32Seed(b, routingSeed) }

// HashKey exposes the routing hash to the fleet layer, which routes against
// the same rings this package builds.
func HashKey(b []byte) uint32 { return hashBytes(b) }

// routingSeed separates the routing hash stream from every other xxhash use
// in the simulator (device hash lists seed differently per device).
const routingSeed = 0x616e796b // "anyk"

// ErrNotFound re-exports the per-operation miss error for callers that only
// import this package.
var ErrNotFound = kv.ErrNotFound
