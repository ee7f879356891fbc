// Fleet measurement runs: the open-loop methodology against a replicated
// elastic cluster, with mid-run scenario events — kill a member device,
// rebuild it from its surviving replicas, or grow the ring under live load —
// and an acknowledged-write durability oracle. The oracle is the
// experiment's point: it records which writes the fleet acknowledged and,
// after the storm, checks every one of them against what the fleet still
// serves. At R≥2/W=2 killing one device must lose none of them; at R=1 the
// same kill provably loses data, which is the contrast reports/fleet.txt
// prints.
package harness

import (
	"bytes"
	"fmt"
	"slices"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// FleetRunConfig describes one replicated-fleet run: the cluster geometry
// (Replication.Factor ≥ 1), the shared open-loop methodology knobs, and the
// scenario schedule expressed as fractions of the arrival horizon. Like the
// other run configs it holds only comparable values, so the parallel runner
// can memoize on it.
type FleetRunConfig struct {
	Cluster anykey.ClusterOptions
	BaseConfig

	// KillAtFrac, when > 0, kills member KillShard at that fraction of the
	// horizon with KillCause.
	KillAtFrac float64
	KillShard  int
	KillCause  anykey.FleetKillCause

	// RebuildAtFrac, when > 0, starts rebuilding the killed member at that
	// fraction of the horizon; the refill streams between client ops until
	// drained.
	RebuildAtFrac float64

	// AddShardAtFrac, when > 0, grows the ring by one member at that
	// fraction of the horizon, streaming the migration under live load.
	AddShardAtFrac float64

	// StepKeys bounds how many migration/rebuild keys stream between
	// consecutive client submissions (default 32): background refill
	// competes with traffic instead of monopolising the devices.
	StepKeys int

	// BatchSize is the warm-up MultiPut wave size (default shards × QD).
	BatchSize int
}

// clusterRun is the fleet run seen as a cluster run: the same geometry,
// methodology knobs, population sizing and warm-up.
func (c *FleetRunConfig) clusterRun() ClusterRunConfig {
	return ClusterRunConfig{Cluster: c.Cluster, BaseConfig: c.BaseConfig, BatchSize: c.BatchSize}
}

func (c *FleetRunConfig) defaults() error {
	cc := c.clusterRun()
	if err := cc.defaults(); err != nil {
		return err
	}
	c.Cluster, c.BaseConfig, c.BatchSize = cc.Cluster, cc.BaseConfig, cc.BatchSize
	if c.Cluster.Replication.Factor < 1 {
		return fmt.Errorf("harness: fleet run requires Replication.Factor >= 1")
	}
	if !c.Workload.Arrival.Open() {
		return fmt.Errorf("harness: fleet run requires an open-loop arrival process")
	}
	if c.StepKeys == 0 {
		c.StepKeys = 32
	}
	return nil
}

// Population returns the number of distinct keys the run loads. The usable
// capacity divides by Factor: every key occupies Factor member devices.
func (c *FleetRunConfig) Population() (uint64, error) {
	if err := c.defaults(); err != nil {
		return 0, err
	}
	cc := c.clusterRun()
	return cc.Population()
}

// FleetResult carries one fleet run's measurements.
type FleetResult struct {
	System   string
	Workload string
	Members  int
	R, W     int

	Population uint64
	Ops        int64 // open-loop attempts

	ReadLat  stats.Histogram
	WriteLat stats.Histogram

	// Read end-to-end latency split into scenario windows: first arrival
	// before the kill, between kill and rebuild completion (the outage), and
	// after — the kill's tail-latency blast radius. With no kill scheduled
	// everything lands in Pre.
	ReadPre    stats.Histogram
	ReadOutage stats.Histogram
	ReadPost   stats.Histogram

	Open *OpenStats
	Repl anykey.ReplicationStats

	// Durability oracle. AckedIDs counts distinct keys with at least one
	// acknowledged write; TaintedIDs the keys the open-loop client tainted
	// (openLoop.tainted: a put timed out or failed outright). After the
	// run every acked key is read back: a clean key must serve exactly its
	// latest acknowledged payload, a tainted one must at least be readable.
	// LostAcked counts the keys that failed their check — acknowledged data
	// the fleet no longer serves.
	AckedIDs   int64
	TaintedIDs int64
	LostAcked  int64
	CleanOK    int64

	// Scenario accounting, in virtual time.
	KillRel     anykey.Duration // when the kill landed (epoch-relative)
	RebuildDur  anykey.Duration // merged-clock span of the rebuild
	RebuildKeys int64
	MigrateDur  anykey.Duration // merged-clock span of the AddShard migration

	SimSeconds float64
	IOPS       float64
	Verified   int64
}

// RunFleet executes warm-up + the open-loop scenario on a replicated fleet:
// the one open-loop client, with (a) the kill / rebuild / add-shard schedule
// fired on the arrival clock before each submission; (b) migration and
// rebuild streams stepped between client submissions; (c) reads windowed
// around the outage; and (d) the acknowledged-write oracle with its final
// read-back pass.
func RunFleet(cfg FleetRunConfig) (*FleetResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	cc := cfg.clusterRun()
	w, err := warmUpCluster(&cc)
	if err != nil {
		return nil, err
	}
	cl := w.cl
	defer cl.Close()
	res := cfg.placeholder()
	res.Population = w.gen.Population()

	// Scenario schedule on the arrival clock.
	horizon := float64(cfg.Horizon)
	killAt := anykey.Time(horizon * cfg.KillAtFrac)
	rebuildAt := anykey.Time(horizon * cfg.RebuildAtFrac)
	addAt := anykey.Time(horizon * cfg.AddShardAtFrac)
	var (
		killed       bool
		rebuildDone  anykey.Time = -1
		rb           *anykey.Rebuild
		rbStartClock anykey.Time
		mig          *anykey.Migration
		migStart     anykey.Time
		acked        = map[uint64]struct{}{}
	)
	tgt := w.target(nil)
	loop := openLoop{cfg: &cfg.BaseConfig, gen: w.gen, tgt: tgt,
		hists: openHists{read: &res.ReadLat, write: &res.WriteLat}}

	// Run the scenario events scheduled at or before now, then step any
	// in-flight background stream by StepKeys.
	loop.beforeSubmit = func(now anykey.Time) error {
		if killAt > 0 && !killed && now >= killAt {
			if err := cl.KillShard(cfg.KillShard, cfg.KillCause); err != nil {
				return fmt.Errorf("harness: fleet kill: %w", err)
			}
			killed = true
			res.KillRel = anykey.Duration(killAt)
		}
		if addAt > 0 && now >= addAt {
			m, err := cl.AddShard()
			if err != nil {
				return fmt.Errorf("harness: fleet addshard: %w", err)
			}
			mig = m
			migStart = cl.Now()
			tgt.adopt(cl.Shards()-1, now)
			addAt = 0
		}
		if rebuildAt > 0 && killed && rb == nil && rebuildDone < 0 && now >= rebuildAt {
			r, err := cl.RebuildShard(cfg.KillShard)
			if err != nil {
				return fmt.Errorf("harness: fleet rebuild: %w", err)
			}
			rb = r
			rbStartClock = cl.Now()
			tgt.adopt(cfg.KillShard, now)
		}
		if rb != nil {
			done, err := rb.Step(cfg.StepKeys)
			if err != nil {
				return fmt.Errorf("harness: fleet rebuild step: %w", err)
			}
			if done {
				res.RebuildDur = cl.Now().Sub(rbStartClock)
				_, _, res.RebuildKeys = rb.Progress()
				rebuildDone = now
				rb = nil
			}
		}
		if mig != nil {
			done, err := mig.Step(cfg.StepKeys)
			if err != nil {
				return fmt.Errorf("harness: fleet migration step: %w", err)
			}
			if done {
				res.MigrateDur = cl.Now().Sub(migStart)
				mig = nil
			}
		}
		return nil
	}
	loop.completed = func(op *pendingOp, e2e anykey.Duration) {
		if op.op.Kind == workload.OpPut {
			// Acknowledged within the deadline: the durability promise the
			// oracle holds the fleet to. A retried attempt acked out of
			// order with later fresh writes, so its taint (set when it
			// first failed) stays.
			acked[op.op.ID] = struct{}{}
			return
		}
		// Window the read by its first arrival: before the kill, during
		// the outage, or after the rebuild drained.
		switch {
		case killAt == 0 || op.firstRel < killAt:
			res.ReadPre.Record(e2e)
		case rebuildDone >= 0 && op.firstRel >= rebuildDone:
			res.ReadPost.Record(e2e)
		default:
			res.ReadOutage.Record(e2e)
		}
	}
	if res.Open, err = loop.run(); err != nil {
		return nil, err
	}
	res.Ops, res.Verified = res.Open.Attempts, loop.verified

	// Drain still-streaming background work so the end state is well-defined
	// before the oracle pass.
	if rb != nil {
		if err := rb.Run(); err != nil {
			return nil, fmt.Errorf("harness: fleet rebuild drain: %w", err)
		}
		res.RebuildDur = cl.Now().Sub(rbStartClock)
		_, _, res.RebuildKeys = rb.Progress()
	}
	if mig != nil {
		if err := mig.Run(); err != nil {
			return nil, fmt.Errorf("harness: fleet migration drain: %w", err)
		}
		res.MigrateDur = cl.Now().Sub(migStart)
	}
	fleetOraclePass(&cfg, w.gen, cl, acked, loop.tainted, res)

	if _, err := cl.Barrier(); err != nil {
		return nil, err
	}
	res.SimSeconds = execSeconds(cl.Stats(), w.epochs)
	if res.SimSeconds > 0 {
		res.IOPS = float64(res.Ops) / res.SimSeconds
		res.Open.Goodput = float64(res.Open.GoodOps) / res.SimSeconds
	}
	fs, err := cl.FleetStats()
	if err != nil {
		return nil, err
	}
	res.Repl = fs.Repl
	return res, nil
}

// fleetOraclePass reads back every acknowledged key and scores the
// durability promise: clean keys must serve exactly their latest
// acknowledged payload, tainted keys must at least be readable. Failures
// are LostAcked — acknowledged data the fleet no longer serves.
func fleetOraclePass(cfg *FleetRunConfig, gen *workload.Generator, cl *anykey.Cluster, acked, tainted map[uint64]struct{}, res *FleetResult) {
	ids := make([]uint64, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	res.AckedIDs = int64(len(ids))
	res.TaintedIDs = int64(len(tainted))
	kbuf := make([]byte, 0, 64)
	for _, id := range ids {
		kbuf = workload.AppendKey(kbuf[:0], cfg.Workload, id)
		v, _, err := cl.Get(kbuf)
		if _, ok := tainted[id]; ok {
			if err != nil {
				res.LostAcked++
			}
			continue
		}
		if err != nil || !bytes.Equal(v, gen.ExpectedValue(id)) {
			res.LostAcked++
			continue
		}
		res.CleanOK++
	}
}
