package fleet

import (
	"errors"
	"fmt"
	"slices"

	"anykey/internal/cluster"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/trace"
)

// KillShard kills a member's device mid-traffic: a power cut or grown-bad
// exhaustion (the two terminal causes internal/fault injects) after which
// the hardware's contents are unavailable. The member's in-flight work is
// simply gone — acknowledged writes survive only where replicas hold them.
// Reads fall through to surviving owners; writes keep acking as long as
// WriteQuorum alive owners remain.
func (f *Fleet) KillShard(id int, cause cluster.KillCause) error {
	m, err := f.shardByID(id)
	if err != nil {
		return err
	}
	return m.Kill(cause)
}

// Rebuild is an in-flight device rebuild: replacement hardware under the
// dead member's identity, re-filled from the surviving replicas' scans.
// The ring is untouched — the member ID keeps its vnodes — so a rebuild
// moves no ownership; it only restores the replica the kill destroyed.
//
// While rebuilding, the member takes new writes — so the refill cannot
// lose fresh traffic — but serves no reads and counts toward no write
// quorum until Step drains and the member returns to alive. The refill is
// put-if-absent: in one request under the member mutex it checks the
// replacement for the key and copies only on a miss, so a replica version
// written by a client during the rebuild is never clobbered by an older
// scanned copy.
type Rebuild struct {
	stream  // sources are the ring members alive at start
	subject int32

	keys  int64
	bytes int64
}

// Subject returns the member being rebuilt.
func (r *Rebuild) Subject() int32 { return r.subject }

// Progress reports sources drained vs total, plus keys copied so far.
func (r *Rebuild) Progress() (drained, total int, keys int64) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.srcIdx, len(r.sources), r.keys
}

// RebuildShard replaces a dead member's hardware (Config.NewDevice, same
// member ID, clock starting at the merged fleet time) and returns the
// steppable refill. Surviving replicas keep serving reads throughout; the
// member rejoins the read path and the quorum only when the refill drains.
func (f *Fleet) RebuildShard(id int) (*Rebuild, error) {
	m, err := f.shardByID(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	busy := f.mig != nil
	f.mu.Unlock()
	if busy {
		return nil, ErrMigrationInProgress
	}

	if st, _ := m.State(); st != cluster.ShardDead {
		return nil, fmt.Errorf("fleet: member %d is %s, not dead", id, st)
	}
	dev, tr, err := f.newDev(id)
	if err != nil {
		return nil, fmt.Errorf("fleet: rebuild device: %w", err)
	}
	if err := f.ReplaceShard(id, dev, tr); err != nil {
		return nil, fmt.Errorf("fleet: rebuild: %w", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	r := &Rebuild{subject: int32(id)}
	r.stream = stream{f: f, what: "rebuild", sources: f.aliveOfLocked(f.ringIDs), each: r.rebuildKey, commit: r.commitLocked}
	return r, nil
}

// rebuildKey copies one scanned pair onto the rebuilding member when (a)
// that member owns the key under the committed ring and (b) src is the
// key's first alive owner — every alive ring member is scanned, so one
// coordinator per key lets the surviving replicas dedupe deterministically.
func (r *Rebuild) rebuildKey(src int32, p kv.Pair) (bool, error) {
	f := r.f
	h := cluster.HashKey(p.Key)

	f.mu.Lock()
	owners := f.ring.OwnersHash(nil, h, f.repl.Factor)
	f.mu.Unlock()
	if !slices.Contains(owners, r.subject) || f.firstAlive(owners) != src {
		return false, nil
	}

	// Put-if-absent: a client write that already reached the replacement is
	// newer than anything a survivor scan can carry.
	put := cluster.Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: p.Key, Value: p.Value, IfAbsent: true, Stream: true}
	_, _, err := f.Shard(int(r.subject)).Do(put, cluster.Refilling)
	switch {
	case errors.Is(err, ErrShardDown), errors.Is(err, cluster.ErrExists):
		return false, nil
	case err != nil:
		return false, fmt.Errorf("fleet: rebuilding %q onto member %d: %w", p.Key, r.subject, err)
	}
	f.mu.Lock()
	f.stats.MigrationOps++
	r.keys++
	r.bytes += int64(len(p.Key) + len(p.Value))
	f.mu.Unlock()
	return true, nil
}

// commitLocked returns the member to alive and books the rebuild counters.
// Caller holds f.mu.
func (r *Rebuild) commitLocked() {
	f := r.f
	f.Shard(int(r.subject)).Transition(cluster.Refilling, cluster.ShardAlive)
	f.stats.Rebuilds++
	f.stats.RebuiltKeys += r.keys
	f.stats.RebuiltBytes += r.bytes
}
