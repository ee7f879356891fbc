package fleet

import "anykey/internal/cluster"

// ReplStats are the fleet-level replication, migration, and rebuild
// counters, all monotone since construction.
type ReplStats struct {
	// Factor and WriteQuorum echo the protocol in force.
	Factor      int
	WriteQuorum int
	ReadMode    string

	// Epoch counts committed migration epochs; MigrationActive reports a
	// topology change still streaming keys.
	Epoch           int64
	MigrationActive bool

	// QuorumFailures counts writes acknowledged by fewer than WriteQuorum
	// alive replicas (the caller saw ErrQuorumNotMet).
	QuorumFailures int64
	// ReadFallbacks counts reads served by an owner past the first alive
	// one tried (a down replica or double-read miss fell through).
	ReadFallbacks int64
	// ReadRepairs counts divergent replicas re-written by ReadRepair reads.
	ReadRepairs int64

	// MigratedKeys/MigratedBytes/MigrationOps account topology-change
	// streaming traffic (scans + copies), kept apart from client ops.
	MigratedKeys  int64
	MigratedBytes int64
	MigrationOps  int64
	// CleanupDeletes counts keys deleted off ex-owners at epoch commit.
	CleanupDeletes int64

	// Rebuilds counts completed device rebuilds; RebuiltKeys/RebuiltBytes
	// the data re-filled onto replacement hardware.
	Rebuilds     int64
	RebuiltKeys  int64
	RebuiltBytes int64

	// DeadMembers and RebuildingMembers are current lifecycle gauges;
	// RingMembers the committed ring size.
	DeadMembers       int
	RebuildingMembers int
	RingMembers       int
}

// Stats is the fleet's merged statistics view: the shard set's rollup — whose
// per-shard rows carry each member's lifecycle state, dead members
// contributing their op counts but no device state — plus the replication
// counters.
type Stats struct {
	cluster.Stats
	Repl ReplStats
}

// Stats snapshots the replication counters under the fleet mutex and the
// shard set through cluster.CollectStats, so it is safe concurrently with
// in-flight operations.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	repl := f.stats
	repl.Factor, repl.WriteQuorum, repl.ReadMode = f.repl.Factor, f.repl.WriteQuorum, f.repl.ReadMode.String()
	repl.MigrationActive = f.mig != nil
	repl.RingMembers = len(f.ringIDs)
	f.mu.Unlock()
	out := Stats{Stats: f.CollectStats(), Repl: repl}
	for _, ss := range out.PerShard {
		switch ss.State {
		case cluster.ShardDead.String():
			out.Repl.DeadMembers++
		case cluster.ShardRebuilding.String():
			out.Repl.RebuildingMembers++
		}
	}
	return out
}
