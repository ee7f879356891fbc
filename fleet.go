package anykey

import (
	"fmt"

	"anykey/internal/cluster"
	"anykey/internal/cluster/fleet"
)

// Fleet-facing re-exports. These only apply to a Cluster opened with
// ClusterOptions.Replication.Factor ≥ 1.
type (
	// ReplicationOptions selects the replica protocol: Factor (R), the
	// WriteQuorum (W ≤ R) a write needs for acknowledgment, and the
	// ReadMode.
	ReplicationOptions = fleet.Replication
	// FleetReadMode selects read-one-with-fallback or read-repair.
	FleetReadMode = fleet.ReadMode
	// FleetKillCause records what killed a member device.
	FleetKillCause = cluster.KillCause
	// FleetStats is the fleet's merged statistics view: the cluster rollup
	// (whose PerShard rows carry each member's lifecycle State and kill
	// Cause) plus the replication/migration/rebuild counters.
	FleetStats = fleet.Stats
	// ReplicationStats are the fleet-level replication counters.
	ReplicationStats = fleet.ReplStats
	// Migration is an in-flight topology change (AddShard/RemoveShard); it
	// must be stepped (or Run) to completion while traffic keeps flowing.
	Migration = fleet.Migration
	// Rebuild is an in-flight device rebuild after KillShard.
	Rebuild = fleet.Rebuild
	// MigrationStatus describes the in-flight topology change, if any.
	MigrationStatus = fleet.MigrationStatus
	// FleetOpResult is one replicated operation's full outcome, exposed by
	// the fleet-native entry points for drivers that need per-replica
	// detail (the harness's durability oracle does).
	FleetOpResult = fleet.OpResult
	// ArrivalFunc maps a member ID to an arrival instant in that member's
	// clock domain, for open-loop replicated submission.
	ArrivalFunc = fleet.ArrivalFunc
)

// Read modes for ReplicationOptions.ReadMode.
const (
	// ReadOne serves from the first alive owner, falling back on a down
	// replica or a miss (default).
	ReadOne = fleet.ReadOne
	// ReadRepair reads every alive owner and re-writes the serving value
	// onto divergent replicas.
	ReadRepair = fleet.ReadRepair
)

// Kill causes for Cluster.KillShard.
const (
	// KillPowerCut kills the device as a power cut mid-traffic would.
	KillPowerCut = cluster.KillPowerCut
	// KillGrownBad kills the device as grown-bad block exhaustion would.
	KillGrownBad = cluster.KillGrownBad
)

// Fleet sentinel errors.
var (
	// ErrQuorumNotMet reports a write acknowledged by fewer than
	// WriteQuorum alive replicas (the replicas that executed keep it).
	ErrQuorumNotMet = fleet.ErrQuorumNotMet
	// ErrShardDown reports an operation whose every replica is dead, or a
	// scan of a dead shard.
	ErrShardDown = fleet.ErrShardDown
	// ErrMigrationInProgress rejects a topology change while another
	// migration is still streaming keys.
	ErrMigrationInProgress = fleet.ErrMigrationInProgress
)

// fleetGate rejects fleet-only calls on closed or non-replicated clusters.
func (c *Cluster) fleetGate() error {
	if err := c.gate(); err != nil {
		return err
	}
	if c.f == nil {
		return fmt.Errorf("%w: cluster opened without Replication (set ClusterOptions.Replication.Factor)", ErrUnsupported)
	}
	return nil
}

// Replication returns the replica protocol in force (zero Factor on a
// non-replicated cluster).
func (c *Cluster) Replication() ReplicationOptions { return c.opts.Replication }

// AddShard brings a fresh member device into the ring — same configuration
// as the initial shards, seeded by its member ID — and returns the
// migration streaming the ~1/N key fraction the new topology assigns it.
// Traffic keeps flowing while the caller steps the migration; reads
// double-read through old owners until it commits.
func (c *Cluster) AddShard() (*Migration, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.AddShard()
}

// RemoveShard takes member id out of the ring, streaming its keys to their
// new owners before the member retires at the migration's commit.
func (c *Cluster) RemoveShard(id int) (*Migration, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.RemoveShard(id)
}

// KillShard kills member id's device mid-traffic (power cut or grown-bad
// exhaustion): its contents become unavailable, surviving replicas serve
// reads, and writes keep acknowledging while WriteQuorum alive owners
// remain.
func (c *Cluster) KillShard(id int, cause FleetKillCause) error {
	if err := c.fleetGate(); err != nil {
		return err
	}
	return c.f.KillShard(id, cause)
}

// RebuildShard replaces a dead member's hardware and returns the steppable
// refill from the surviving replicas' scans. The member rejoins the read
// path and the write quorum when the refill drains.
func (c *Cluster) RebuildShard(id int) (*Rebuild, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.RebuildShard(id)
}

// Migrating returns the in-flight topology change's status.
func (c *Cluster) Migrating() MigrationStatus {
	if c.f == nil {
		return MigrationStatus{}
	}
	return c.f.Migrating()
}

// ShardState returns member id's lifecycle state ("alive", "dead",
// "rebuilding", "retired") and, for dead members, the kill cause.
func (c *Cluster) ShardState(id int) (state, cause string, err error) {
	if err := c.fleetGate(); err != nil {
		return "", "", err
	}
	return c.f.State(id)
}

// FleetStats returns the full fleet statistics view: the Stats() rollup
// plus the replication counters.
func (c *Cluster) FleetStats() (FleetStats, error) {
	if err := c.fleetGate(); err != nil {
		return FleetStats{}, err
	}
	return c.f.Stats(), nil
}

// FleetPutAt is the fleet-native open-loop Put: per-replica arrival
// instants and the full per-replica outcome. Drivers that only need the
// single-copy shape should use PutAt.
func (c *Cluster) FleetPutAt(arrival ArrivalFunc, key, value []byte) (FleetOpResult, error) {
	if err := c.fleetGate(); err != nil {
		return FleetOpResult{}, err
	}
	return c.f.PutAt(arrival, key, value), nil
}

// FleetGetAt is the fleet-native open-loop Get.
func (c *Cluster) FleetGetAt(arrival ArrivalFunc, key []byte) (FleetOpResult, error) {
	if err := c.fleetGate(); err != nil {
		return FleetOpResult{}, err
	}
	return c.f.GetAt(arrival, key), nil
}
