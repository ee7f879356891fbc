// Package fleet is replication as a policy over internal/cluster's shard
// set. A Fleet embeds the *cluster.Cluster that owns the shards — devices,
// engines, clocks, lifecycle state, and every whole-set operation (Now,
// Barrier, Sync, CollectStats, Metadata, ScanAt, tracers) — and adds only what
// replication decides: the ring's successor walk yielding R distinct owners
// per key, quorum acknowledgment, read fallback and repair, live topology
// change (add/remove a shard with streamed key migration and double-reads
// during handoff), and device death with rebuild from the surviving replicas.
// Every routed method of the embedded cluster is shadowed here, so nothing
// reaches a shard without passing the policy.
//
// # Replication
//
// A key's replica set is the first R distinct shards met walking the ring
// clockwise from its hash (cluster.Ring.Owners). Writes execute on every
// alive owner, in ring order; the write is ACKNOWLEDGED only when at least
// WriteQuorum fully-alive owners succeeded, else it reports ErrQuorumNotMet
// — the executed replicas keep the data (the device cannot be un-asked),
// exactly as a timed-out request does. Reads are read-one with fallback:
// the first alive owner serves, later owners are consulted only when the
// earlier ones are down or miss (which is also how double-reads during
// migration and reads during a rebuild resolve). ReadRepair mode reads all
// alive owners and re-writes the serving value onto any replica that
// diverged. At R=1 the walk is the cluster's own routing: the fleet starts
// from the ring cluster.New built, so placement, clocks and flash traffic
// match a single-copy cluster exactly.
//
// # Clock domains
//
// A replicated operation touches R shard clock domains; its instants are
// merged (a write acks at the WriteQuorum-th earliest replica completion,
// merged numerically) and never propagated, so a fleet driven
// single-threaded is bit-for-bit deterministic.
//
// # Concurrency
//
// Every replica, stream and repair request runs through cluster.Shard.Do,
// whose admission set states the lifecycle rule it needs; the shard mutex it
// takes serializes engine/device access (one replica at a time, in ring-walk
// order). The fleet mutex guards topology (the ring, migration
// state) and the replication counters, and is always taken before a shard
// mutex. Concurrent callers are safe — the network server runs each command
// on its connection's goroutine — but, as everywhere in this codebase, the
// locks serialize without reordering: single-threaded callers see identical
// results with or without observers.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"anykey/internal/cluster"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Sentinel errors of the replicated fleet.
var (
	// ErrQuorumNotMet reports a write acknowledged by fewer than WriteQuorum
	// alive replicas. The replicas that did execute keep the write.
	ErrQuorumNotMet = errors.New("fleet: write quorum not met")
	// ErrShardDown reports an operation whose every replica is dead — the
	// same sentinel a scan of a dead shard returns.
	ErrShardDown = cluster.ErrShardDown
	// ErrMigrationInProgress rejects a topology change (AddShard,
	// RemoveShard, RemoveShard's commit, a rebuild of a migrating fleet)
	// while another migration is still streaming keys.
	ErrMigrationInProgress = errors.New("fleet: topology migration in progress")
)

// ReadMode selects the replicated read protocol.
type ReadMode int

const (
	// ReadOne serves from the first alive owner, falling back along the
	// ring walk on a down replica or a miss.
	ReadOne ReadMode = iota
	// ReadRepair reads every alive owner, serves the first alive owner's
	// value, and re-writes it onto replicas that diverged or missed.
	ReadRepair
)

// String returns the read mode's name.
func (m ReadMode) String() string {
	if m == ReadRepair {
		return "read-repair"
	}
	return "read-one"
}

// Replication parameterises the replica protocol.
type Replication struct {
	// Factor is R, the distinct owners per key (≥ 1).
	Factor int
	// WriteQuorum is the alive-replica successes required to acknowledge a
	// write (default Factor = write-all).
	WriteQuorum int
	// ReadMode selects read-one-with-fallback or read-repair.
	ReadMode ReadMode
}

// DeviceFactory builds the device (and optional tracer) for a new member —
// AddShard's fresh shard, or a rebuild's replacement hardware. The fleet
// owns seeding policy through this hook, so replacements are deterministic.
type DeviceFactory func(memberID int) (device.KVSSD, *trace.Tracer, error)

// Config parameterises a fleet over already-constructed member devices.
type Config struct {
	// QueueDepth is each member engine's submission queue depth (default 1).
	QueueDepth int
	// Repl is the replication protocol (Factor default 1, WriteQuorum
	// default Factor).
	Repl Replication
	// NewDevice builds devices for AddShard and RebuildShard. Required.
	NewDevice DeviceFactory
	// Tracers, when non-nil, holds one tracer per initial member.
	Tracers []*trace.Tracer
}

// scanChunk is the keys-per-scan granularity of migration and rebuild
// streams.
const scanChunk = 64

// Fleet is the elastic replicated cluster: the embedded shard set plus the
// replication policy's topology and counters.
type Fleet struct {
	*cluster.Cluster

	mu      sync.Mutex
	ring    cluster.Ring
	ringIDs []int32 // committed ring membership, ascending
	repl    Replication
	newDev  DeviceFactory

	mig *Migration // non-nil while a topology change streams keys

	// stats holds the monotone counters (guarded by mu); Stats fills in the
	// protocol and the gauges.
	stats ReplStats

	// scratch owner buffers, reused when the caller is single-threaded
	// (replicated routing must not allocate per op on the hot path).
	ownScratch sync.Pool
}

// New builds a fleet over the initial member devices (shard IDs 0..len-1).
func New(devs []device.KVSSD, cfg Config) (*Fleet, error) {
	if cfg.Repl.Factor == 0 {
		cfg.Repl.Factor = 1
	}
	if cfg.Repl.WriteQuorum == 0 {
		cfg.Repl.WriteQuorum = cfg.Repl.Factor
	}
	switch {
	case len(devs) == 0:
		return nil, errors.New("fleet: no member devices")
	case cfg.Repl.Factor < 1 || cfg.Repl.Factor > len(devs):
		return nil, fmt.Errorf("fleet: replication factor %d with %d members", cfg.Repl.Factor, len(devs))
	case cfg.Repl.WriteQuorum < 1 || cfg.Repl.WriteQuorum > cfg.Repl.Factor:
		return nil, fmt.Errorf("fleet: write quorum %d with factor %d", cfg.Repl.WriteQuorum, cfg.Repl.Factor)
	case cfg.NewDevice == nil:
		return nil, errors.New("fleet: Config.NewDevice is required")
	}
	c, err := cluster.New(devs, cluster.Config{
		QueueDepth: cfg.QueueDepth,
		Tracers:    cfg.Tracers,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{
		Cluster: c,
		ring:    c.Ring(),
		repl:    cfg.Repl,
		newDev:  cfg.NewDevice,
	}
	f.ownScratch.New = func() any { s := make([]int32, 0, 8); return &s }
	for i := range devs {
		f.ringIDs = append(f.ringIDs, int32(i))
	}
	return f, nil
}

// RingMembers returns the committed ring membership.
func (f *Fleet) RingMembers() []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int32(nil), f.ringIDs...)
}

// State returns a member's lifecycle state name and kill cause ("" while
// never killed).
func (f *Fleet) State(id int) (state string, cause string, err error) {
	m, err := f.shardByID(id)
	if err != nil {
		return "", "", err
	}
	st, c := m.State()
	if st == cluster.ShardDead {
		return st.String(), c.String(), nil
	}
	return st.String(), "", nil
}

// shardByID is Shard for caller-supplied IDs: out of range is an error.
func (f *Fleet) shardByID(id int) (*cluster.Shard, error) {
	if m := f.Shard(id); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("fleet: no member %d", id)
}

// owners computes the key's owner walk under the committed ring and, when a
// migration is streaming, appends the old ring's owners not already present
// — the union a write must cover and the fallback order a double-read
// consults (new owners first, then the old). Callers return the slice via
// putOwners.
func (f *Fleet) owners(key []byte) []int32 {
	h := cluster.HashKey(key)
	sp := f.ownScratch.Get().(*[]int32)
	dst := (*sp)[:0]
	f.mu.Lock()
	dst = f.ring.OwnersHash(dst, h, f.repl.Factor)
	if f.mig != nil {
		n := len(dst)
		tmp := f.mig.oldRing.OwnersHash(dst, h, f.repl.Factor)
		// Dedup the old-ring walk against the committed one.
		dst = dst[:n]
		for _, m := range tmp[n:] {
			if !slices.Contains(dst, m) {
				dst = append(dst, m)
			}
		}
	}
	f.mu.Unlock()
	*sp = dst
	return dst
}

func (f *Fleet) putOwners(dst []int32) {
	sp := &dst
	f.ownScratch.Put(sp)
}

// ShardFor returns the key's primary: its first committed-ring owner — what
// the single-copy cluster, whose fixed ring this shadows, calls its shard.
func (f *Fleet) ShardFor(key []byte) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.ring.OwnerHash(cluster.HashKey(key)))
}

// ReplicaAttempt is one replica's slice of a replicated operation.
type ReplicaAttempt struct {
	Member int
	Comp   host.Completion
	Err    error
}

// OpResult is the outcome of one replicated operation.
type OpResult struct {
	// Owners is the owner walk used (committed ring first; during a
	// migration the old ring's extra owners follow).
	Owners []int
	// Replicas holds the device attempts actually executed, in walk order.
	Replicas []ReplicaAttempt
	// Acked reports a write that met its quorum, or a read that found a
	// value.
	Acked bool
	// AckDone is a write's acknowledgment instant — the WriteQuorum-th
	// earliest successful replica completion, merged numerically across the
	// replicas' clock domains — or a read's serving completion time.
	AckDone sim.Time
	// Served is the member that served a read (-1 otherwise).
	Served int
	// Value is a read's payload, copied out of the serving device; Pairs a
	// scan's results.
	Value []byte
	Pairs []kv.Pair
	// Err is the operation verdict: nil, ErrQuorumNotMet, ErrShardDown, or
	// kv.ErrNotFound.
	Err error
}

// ArrivalFunc maps a member ID to the arrival instant in that member's
// clock domain. Closed-loop paths pass nil (each replica issues when its
// earliest slot frees).
type ArrivalFunc func(member int) sim.Time

// at is member id's arrival: host.WhenFree on the closed loop.
func (a ArrivalFunc) at(id int32) sim.Time {
	if a == nil {
		return host.WhenFree
	}
	return a(int(id))
}

// write executes one replicated Put or Delete: every alive (or rebuilding)
// owner executes it in walk order, and the op acks iff at least WriteQuorum
// fully-alive owners succeeded.
func (f *Fleet) write(arrival ArrivalFunc, key, value []byte, del bool) OpResult {
	owners := f.owners(key)
	defer f.putOwners(owners)
	res := newResult(owners)
	req := cluster.Request{Kind: trace.OpPut, Key: key, Value: value}
	if del {
		req.Kind = trace.OpDelete
	}
	var ackTimes []sim.Time
	for _, id := range owners {
		req.Arrival = arrival.at(id)
		comp, st, err := f.Shard(int(id)).Do(req, cluster.Writable)
		if errors.Is(err, ErrShardDown) {
			continue
		}
		res.Replicas = append(res.Replicas, ReplicaAttempt{Member: int(id), Comp: comp, Err: err})
		if err == nil && st == cluster.ShardAlive {
			ackTimes = append(ackTimes, comp.Done)
		}
	}
	if len(res.Replicas) == 0 {
		res.Err = ErrShardDown
		return res
	}
	if len(ackTimes) < f.repl.WriteQuorum {
		res.Err = ErrQuorumNotMet
		f.mu.Lock()
		f.stats.QuorumFailures++
		f.mu.Unlock()
		return res
	}
	// The ack instant is the quorum-th earliest replica completion: the
	// client is satisfied the moment W replicas confirmed, whatever the
	// stragglers do.
	slices.Sort(ackTimes)
	res.Acked = true
	res.AckDone = ackTimes[f.repl.WriteQuorum-1]
	return res
}

// read executes one replicated Get: the first alive owner serves; a down
// replica or a miss falls back along the walk (double-reads during
// migration resolve through exactly this fallback). In ReadRepair mode
// every alive owner is read and divergent replicas are re-written with the
// serving value.
func (f *Fleet) read(arrival ArrivalFunc, key []byte) OpResult {
	owners := f.owners(key)
	defer f.putOwners(owners)
	res := newResult(owners)
	repair := f.repl.ReadMode == ReadRepair
	var repairTargets []int32
	for walk, id := range owners {
		if res.Served >= 0 && !repair {
			break
		}
		get := cluster.Request{Kind: trace.OpGet, Arrival: arrival.at(id), Key: key}
		comp, _, err := f.Shard(int(id)).Do(get, cluster.Serving)
		if errors.Is(err, ErrShardDown) {
			continue
		}
		res.Replicas = append(res.Replicas, ReplicaAttempt{Member: int(id), Comp: comp, Err: err})
		switch {
		case res.Served < 0 && err == nil:
			res.Served = int(id)
			res.Value = comp.Value
			res.AckDone = comp.Done
			res.Acked = true
			// A serve past the walk's head is a fallback, whether the
			// earlier owners were down (skipped) or missed (tried).
			if walk > 0 {
				f.mu.Lock()
				f.stats.ReadFallbacks++
				f.mu.Unlock()
			}
		case res.Served >= 0 && (err != nil || !bytes.Equal(comp.Value, res.Value)):
			// Divergent or missing replica behind the serving one.
			repairTargets = append(repairTargets, id)
		}
	}
	if len(res.Replicas) == 0 {
		res.Err = ErrShardDown
		return res
	}
	if res.Served < 0 {
		res.Err = kv.ErrNotFound
		return res
	}
	repaired := 0
	put := cluster.Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: key, Value: res.Value}
	for _, id := range repairTargets {
		if _, _, err := f.Shard(int(id)).Do(put, cluster.Serving); err == nil {
			repaired++
		}
	}
	if repaired > 0 {
		f.mu.Lock()
		f.stats.ReadRepairs += int64(repaired)
		f.mu.Unlock()
	}
	return res
}

// newResult starts an operation's result with its owner walk copied out of
// the pooled scratch.
func newResult(owners []int32) OpResult {
	res := OpResult{Served: -1, Owners: make([]int, len(owners))}
	for i, id := range owners {
		res.Owners[i] = int(id)
	}
	return res
}

// Put stores one pair on every alive owner (closed loop).
func (f *Fleet) Put(key, value []byte) OpResult { return f.write(nil, key, value, false) }

// Apply runs a mixed put/delete batch through the replicated write path —
// every op fans out to its full replica set and must meet WriteQuorum. The
// first failed op aborts the batch (later ops are not attempted), so the
// transaction layer's sync-before-advance ordering holds per phase.
func (f *Fleet) Apply(ops []kv.Op) error {
	for i, op := range ops {
		if res := f.write(nil, op.Key, op.Value, op.Delete); res.Err != nil {
			return fmt.Errorf("fleet: apply op %d: %w", i, res.Err)
		}
	}
	return nil
}

// Get reads one key, read-one with fallback (closed loop).
func (f *Fleet) Get(key []byte) OpResult { return f.read(nil, key) }

// PutAt is the open-loop replicated Put: arrival maps each replica's
// arrival instant into that member's clock domain.
func (f *Fleet) PutAt(arrival ArrivalFunc, key, value []byte) OpResult {
	return f.write(arrival, key, value, false)
}

// GetAt is the open-loop replicated Get.
func (f *Fleet) GetAt(arrival ArrivalFunc, key []byte) OpResult {
	return f.read(arrival, key)
}

// SyncShards flushes the fleet for the transaction layer's durability
// barriers. Replica sets overlap arbitrarily under the ring walk, so a
// targeted per-shard flush would have to chase owner sets through live
// migrations; the fleet keeps the simpler invariant — sync everything —
// which is strictly stronger than what the barrier needs.
func (f *Fleet) SyncShards([]int) (sim.Time, error) { return f.Sync() }
