// The open-loop cluster scenario: mid-run events fired on the arrival clock —
// kill a member device, rebuild it from its surviving replicas, or grow the
// ring under live load — and the acknowledged-write durability oracle. The
// oracle is the fleet experiment's point: it records which writes the
// cluster acknowledged and, after the measurement, checks every one of them
// against what the cluster still serves. At R≥2/W=2 killing one device must
// lose none of them; at R=1 the same kill provably loses data, which is the
// contrast reports/fleet.txt prints.
package harness

import (
	"bytes"
	"fmt"
	"slices"

	"anykey"
	"anykey/internal/workload"
)

// runOpen is RunCluster's open-loop phase: the one open-loop client, with
// the scenario's schedule fired and its background streams stepped from the
// loop's hooks, any stream still open drained, the measurement taken, and
// only then the acknowledged writes read back.
func runOpen(cfg *ClusterRunConfig, w *warmCluster, res *ClusterResult) (*ClusterResult, error) {
	cl := w.cl
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
	// Each arrival is offset into the clock domain of the member it reaches.
	tgt := w.target(res.ShardOps)
	loop := openLoop{cfg: &cfg.BaseConfig, gen: w.gen, tgt: tgt,
		hists: openHists{read: &res.ReadLat, write: &res.WriteLat}}

	// Run the scenario events scheduled at or before now, then step any
	// in-flight background stream by stepKeys.
	loop.beforeSubmit = func(now anykey.Time) error {
		if killAt > 0 && !killed && now >= killAt {
			if err := cl.KillShard(cfg.KillShard, cfg.KillCause); err != nil {
				return fmt.Errorf("harness: fleet kill: %w", err)
			}
			killed = true
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
			done, err := rb.Step(stepKeys)
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
			done, err := mig.Step(stepKeys)
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
			// oracle holds the cluster to. A retried attempt acked out of
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
	var err error
	if res.Open, err = loop.run(); err != nil {
		return nil, err
	}
	res.Ops, res.Verified = res.Open.Attempts, loop.verified

	// Drain still-streaming background work so the measured end state is
	// well-defined.
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
	if _, err := finishCluster(*cfg, w, res); err != nil {
		return nil, err
	}
	// After the measurement: the read-back is not measured.
	oraclePass(cfg, w.gen, cl, acked, loop.tainted, res)
	return res, nil
}

// oraclePass reads back every acknowledged key and scores the durability
// promise: clean keys must serve exactly their latest acknowledged payload,
// tainted keys must at least be readable. Failures are LostAcked —
// acknowledged data the cluster no longer serves.
func oraclePass(cfg *ClusterRunConfig, gen *workload.Generator, cl *anykey.Cluster, acked, tainted map[uint64]struct{}, res *ClusterResult) {
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
