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

// Migration is an in-flight topology change. The ring swaps to the new
// topology the moment the change starts — so fresh writes land on the new
// owners immediately — while the old ring is kept for double-reads (a read
// missing on the new owners falls through to the old) and to route the
// writes that must cover both owner sets until commit. Step streams the
// affected keys from the old owners' scans; Commit fires automatically when
// the stream drains: it drops the old ring, bumps the migration epoch, and
// deletes the moved keys off their ex-owners.
//
// Keys first written during the migration are not in the cleanup stream; a
// copy may linger on an ex-owner. That copy is unreachable — reads walk the
// committed ring only after commit — and is reclaimed by the device's own
// GC like any dead version.
type Migration struct {
	stream  // sources are the old-ring members alive at start
	oldRing cluster.Ring
	kind    string // "add" or "remove"
	subject int32  // the member added or removed

	// cleanup collects (ex-owner, key) pairs for the commit-time deletes.
	cleanup []cleanupDel
}

// startMigrationLocked installs the in-flight migration away from the old
// ring. Callers hold f.mu and have already swapped f.ring.
func (f *Fleet) startMigrationLocked(kind string, subject int32, oldRing cluster.Ring, oldIDs []int32) *Migration {
	g := &Migration{oldRing: oldRing, kind: kind, subject: subject}
	g.stream = stream{f: f, what: "migration", sources: f.aliveOfLocked(oldIDs), each: g.migrateKey, commit: g.commitLocked}
	f.mig = g
	return g
}

type cleanupDel struct {
	member int32
	key    []byte
}

// Kind reports "add" or "remove"; Subject the member being added/removed.
func (g *Migration) Kind() string   { return g.kind }
func (g *Migration) Subject() int32 { return g.subject }

// Progress reports the source-scan position: sources drained vs total.
func (g *Migration) Progress() (drained, total int) {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.srcIdx, len(g.sources)
}

// AddShard brings a fresh member (built by Config.NewDevice) into the ring
// and starts streaming the ~1/N key fraction the new topology assigns it.
// The returned Migration must be stepped to completion (Step, or Run).
func (f *Fleet) AddShard() (*Migration, error) {
	f.mu.Lock()
	id := f.Shards()
	busy := f.mig != nil
	f.mu.Unlock()
	if busy {
		return nil, ErrMigrationInProgress
	}
	dev, tr, err := f.newDev(id)
	if err != nil {
		return nil, fmt.Errorf("fleet: addshard device: %w", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mig != nil || f.Shards() != id {
		return nil, ErrMigrationInProgress // lost a race with another topology change
	}
	if _, err := f.Cluster.AddShard(dev, tr); err != nil {
		return nil, fmt.Errorf("fleet: addshard: %w", err)
	}
	oldRing, oldIDs := f.ring, f.ringIDs
	f.ringIDs = append(append([]int32(nil), oldIDs...), int32(id))
	f.ring = cluster.BuildRing(f.ringIDs, f.vnodes)
	return f.startMigrationLocked("add", int32(id), oldRing, oldIDs), nil
}

// RemoveShard takes a member out of the ring, streaming its keys to their
// new owners before the member retires at commit. The member keeps serving
// double-reads (and takes union writes) until then.
func (f *Fleet) RemoveShard(id int) (*Migration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mig != nil {
		return nil, ErrMigrationInProgress
	}
	if !slices.Contains(f.ringIDs, int32(id)) {
		return nil, fmt.Errorf("fleet: member %d not in ring", id)
	}
	if len(f.ringIDs)-1 < f.repl.Factor {
		return nil, fmt.Errorf("fleet: removing member %d leaves %d members for replication factor %d",
			id, len(f.ringIDs)-1, f.repl.Factor)
	}
	oldRing, oldIDs := f.ring, f.ringIDs
	keep := make([]int32, 0, len(oldIDs)-1)
	for _, v := range oldIDs {
		if v != int32(id) {
			keep = append(keep, v)
		}
	}
	f.ringIDs = keep
	f.ring = cluster.BuildRing(keep, f.vnodes)
	return f.startMigrationLocked("remove", int32(id), oldRing, oldIDs), nil
}

// migrateKey applies the coordinator rule to one scanned pair: a key is
// processed only by its first ALIVE old-ring owner, so the R replica copies
// dedupe deterministically. When src is that coordinator, the pair is copied
// to the owners the new topology added and the ex-owners are recorded for
// commit-time cleanup. Reports whether this call moved the key.
func (g *Migration) migrateKey(src int32, p kv.Pair) (bool, error) {
	f := g.f
	h := cluster.HashKey(p.Key)

	f.mu.Lock()
	oldOwners := g.oldRing.OwnersHash(nil, h, f.repl.Factor)
	// The coordinator is the key's first alive old-ring owner.
	coord := f.firstAlive(oldOwners)
	newOwners := f.ring.OwnersHash(nil, h, f.repl.Factor)
	f.mu.Unlock()

	if coord != src {
		return false, nil
	}
	moved := false
	put := cluster.Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: p.Key, Value: p.Value, Stream: true}
	for _, id := range newOwners {
		if slices.Contains(oldOwners, id) {
			continue
		}
		// A new owner that is down is skipped but still booked: its rebuild
		// carries the key.
		if _, _, err := f.Shard(int(id)).Do(put, cluster.Writable); err != nil && !errors.Is(err, ErrShardDown) {
			return false, fmt.Errorf("fleet: migrating %q to member %d: %w", p.Key, id, err)
		}
		moved = true
		f.mu.Lock()
		f.stats.MigrationOps++
		f.stats.MigratedBytes += int64(len(p.Key) + len(p.Value))
		f.mu.Unlock()
	}
	if moved {
		f.mu.Lock()
		f.stats.MigratedKeys++
		for _, id := range oldOwners {
			if !slices.Contains(newOwners, id) {
				g.cleanup = append(g.cleanup, cleanupDel{member: id, key: p.Key})
			}
		}
		f.mu.Unlock()
	}
	return moved, nil
}

// commitLocked finishes the migration: epoch++, cleanup deletes off
// ex-owners, old ring dropped, removed member retired. Caller holds f.mu.
func (g *Migration) commitLocked() {
	f := g.f
	for _, cd := range g.cleanup {
		del := cluster.Request{Kind: trace.OpDelete, Arrival: host.WhenFree, Key: cd.key, Stream: true}
		if _, _, err := f.Shard(int(cd.member)).Do(del, cluster.Serving); err == nil {
			f.stats.CleanupDeletes++
			f.stats.MigrationOps++
		}
	}
	g.cleanup = nil
	if g.kind == "remove" {
		f.Shard(int(g.subject)).Transition(cluster.Writable, cluster.ShardRetired)
	}
	f.stats.Epoch++
	f.mig = nil
}

// MigrationStatus describes the in-flight topology change, if any.
type MigrationStatus struct {
	Active       bool
	Kind         string
	Subject      int32
	SourcesDone  int
	SourcesTotal int
	Epoch        int64
}

// Migrating returns the current migration status.
func (f *Fleet) Migrating() MigrationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := MigrationStatus{Epoch: f.stats.Epoch}
	if f.mig != nil {
		st.Active = true
		st.Kind = f.mig.kind
		st.Subject = f.mig.subject
		st.SourcesDone = f.mig.srcIdx
		st.SourcesTotal = len(f.mig.sources)
	}
	return st
}
