// Cluster measurement runs: the §5 methodology lifted onto a sharded
// multi-device fleet. One key population spans the whole cluster; warm-up
// loads it in shuffled order through batched MultiPut waves, then the
// execution phase issues batch waves (puts first, then reads, preserving
// read-your-writes within a wave) until the issued bytes reach a multiple
// of the fleet's capacity. Per-operation latencies land in the same
// histograms single-device runs use; each wave's critical path (its slowest
// shard's busy span) is recorded separately as the batch latency.
package harness

import (
	"bytes"
	"fmt"
	"slices"

	"anykey"
	"anykey/internal/nand"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// ClusterRunConfig describes one cluster measurement run: the cluster
// geometry, the shared methodology knobs (BaseConfig — including the
// open-loop client knobs) and, for an open-loop run on a replicated cluster,
// a scenario schedule expressed as fractions of the arrival horizon. Like
// RunConfig it holds only comparable values, so the parallel runner can
// memoize on it.
type ClusterRunConfig struct {
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
}

// stepKeys bounds how many migration/rebuild keys stream between consecutive
// client submissions: background refill competes with traffic instead of
// monopolising the devices.
const stepKeys = 32

// batchSize is the number of operations per Multi* wave: shards × queue
// depth, enough to keep every shard's queue full when the routing is
// balanced. It also sizes the warm-up MultiPut waves; open-loop execution
// submits per-operation.
func (c *ClusterRunConfig) batchSize() int { return c.Cluster.Shards * c.Cluster.QueueDepth }

func (c *ClusterRunConfig) defaults() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	c.baseDefaults(c.Cluster.Device.PageSize, 0)
	if c.KillAtFrac > 0 || c.RebuildAtFrac > 0 || c.AddShardAtFrac > 0 {
		if c.Cluster.Replication.Factor < 1 {
			return fmt.Errorf("harness: a cluster scenario requires Replication.Factor >= 1")
		}
		if !c.Workload.Arrival.Open() {
			return fmt.Errorf("harness: a cluster scenario requires an open-loop arrival process")
		}
	}
	return nil
}

// capacityBytes returns the fleet's usable capacity: all shards, divided by
// the replication factor when the cluster replicates (every key occupies
// Factor devices).
func (c *ClusterRunConfig) capacityBytes() int64 {
	b := int64(c.Cluster.Shards) * int64(c.Cluster.Device.CapacityMB) << 20
	if f := c.Cluster.Replication.Factor; f > 1 {
		b /= int64(f)
	}
	return b
}

// Population returns the number of distinct keys the run loads across the
// fleet.
func (c *ClusterRunConfig) Population() (uint64, error) {
	if err := c.defaults(); err != nil {
		return 0, err
	}
	return c.basePopulation(c.capacityBytes()), nil
}

// ClusterResult carries a cluster run's measurements: fleet-wide rollups
// plus the shard balance the router produced.
type ClusterResult struct {
	System   string // e.g. "AnyKey+ x4"
	Workload string
	Shards   int
	Router   string

	Population uint64
	Ops        int64 // executed operations (execution phase)

	ReadLat  stats.Histogram
	WriteLat stats.Histogram
	// BatchLat records, for each execution Multi* wave, how long the
	// slowest involved shard spent on its sub-batch (first arrival to last
	// completion within that shard's clock domain) — the wave's critical
	// path. The merged BatchResult span can collapse to zero whenever an
	// uninvolved-in-this-wave shard's clock runs ahead; this cannot.
	BatchLat stats.Histogram

	// QueueWaitLat and ServiceLat merge every shard engine's breakdown over
	// the execution phase.
	QueueWaitLat stats.Histogram
	ServiceLat   stats.Histogram

	// SimSeconds is the fleet's execution wall time in virtual seconds: the
	// slowest shard's elapsed clock over the execution phase (shard clocks
	// are independent, so per-shard elapsed is the meaningful quantity).
	// IOPS is executed operations per that second.
	IOPS       float64
	SimSeconds float64

	// Exec is the fleet flash counter delta over the execution phase;
	// Total the whole run including warm-up.
	Exec  nand.Counters
	Total nand.Counters

	// ShardOps counts execution-phase operations routed to each shard;
	// HottestShare is the largest shard's fraction of them — the router's
	// balance under the workload's skew.
	ShardOps     []int64
	HottestShare float64

	// Open carries the open-loop client's tally, present only when the
	// workload had an arrival process.
	Open *OpenStats

	// ReplStats carries the fleet replication counters when the cluster was
	// opened with a replication factor (zero Factor otherwise).
	ReplStats anykey.ReplicationStats

	Verified int64

	// Open-loop runs only. Read end-to-end latency split into scenario
	// windows: first arrival before the kill, between kill and rebuild
	// completion (the outage), and after — the kill's tail-latency blast
	// radius. With no kill scheduled everything lands in ReadPre.
	ReadPre    stats.Histogram
	ReadOutage stats.Histogram
	ReadPost   stats.Histogram

	// Durability oracle, open-loop runs only. AckedIDs counts distinct keys
	// with at least one acknowledged write; TaintedIDs the keys the
	// open-loop client tainted (openLoop.tainted: a put timed out or failed
	// outright). After the measurement every acked key is read back: a
	// clean key must serve exactly its latest acknowledged payload, a
	// tainted one must at least be readable. LostAcked counts the keys that
	// failed their check — acknowledged data the cluster no longer serves.
	AckedIDs   int64
	TaintedIDs int64
	LostAcked  int64
	CleanOK    int64

	// Scenario accounting, in virtual time.
	RebuildDur  anykey.Duration // merged-clock span of the rebuild
	RebuildKeys int64
	MigrateDur  anykey.Duration // merged-clock span of the AddShard migration

	// Cluster is set only when the run was traced (Cluster.Device.Trace set
	// in the config): the closed cluster, kept for WriteChromeTrace and
	// Blame, whose buffers outlive Close. The trace ring covers the whole run
	// (warm-up events age out of the ring first).
	Cluster *anykey.Cluster
}

// waveSpan measures one wave's critical path: the max over involved shards
// of (last completion − first arrival), each within the shard's own clock
// domain.
func waveSpan(br *anykey.BatchResult, nShards int) anykey.Duration {
	first := make([]anykey.Time, nShards)
	last := make([]anykey.Time, nShards)
	seen := make([]bool, nShards)
	for i, comp := range br.Completions {
		s := br.Shards[i]
		if !seen[s] || comp.Arrival < first[s] {
			first[s] = comp.Arrival
		}
		if !seen[s] || comp.Done > last[s] {
			last[s] = comp.Done
		}
		seen[s] = true
	}
	var span anykey.Duration
	for s, ok := range seen {
		if !ok {
			continue
		}
		if d := last[s].Sub(first[s]); d > span {
			span = d
		}
	}
	return span
}

// warmCluster is an opened cluster at the barrier between warm-up and
// execution, with the generator that loaded it.
type warmCluster struct {
	cl   *anykey.Cluster
	gen  *workload.Generator
	warm anykey.ClusterStats
	// epochs holds each founding shard's exec-start clock (see execBarrier).
	epochs []anykey.Time
}

// execBarrier places the barrier between warm-up and execution and returns
// the stats at that point and each shard's exec-start clock. Shard clocks
// are independent and never aligned (cross-shard time is merged, not
// propagated), so warm-up leaves each shard at its own instant. Execution
// elapsed time is therefore accounted per shard, each against its own
// exec-start clock (see execSeconds).
func execBarrier(cl *anykey.Cluster) (anykey.ClusterStats, []anykey.Time, error) {
	if _, err := cl.Barrier(); err != nil {
		return anykey.ClusterStats{}, nil, err
	}
	warm := cl.Stats()
	cl.ResetBreakdowns()
	epochs := make([]anykey.Time, len(warm.PerShard))
	for i, ss := range warm.PerShard {
		epochs[i] = ss.Now
	}
	return warm, epochs, nil
}

// execSeconds is the execution phase's wall time in virtual seconds: the
// slowest founding shard's elapsed clock, not a difference of merged maxima
// (which would credit or charge one shard's warm-up skew to another). A
// shard added mid-run has no warm-up anchor and is left out.
func execSeconds(final anykey.ClusterStats, epochs []anykey.Time) float64 {
	var slowest anykey.Duration
	for i, epoch := range epochs {
		if d := final.PerShard[i].Now.Sub(epoch); d > slowest {
			slowest = d
		}
	}
	return slowest.Seconds()
}

// warmUpCluster opens cfg's cluster and loads every key once in shuffled
// order, in MultiPut waves of batchSize. The caller closes w.cl.
func warmUpCluster(cfg *ClusterRunConfig) (w *warmCluster, err error) {
	population, err := cfg.Population()
	if err != nil {
		return nil, err
	}
	cl, err := anykey.OpenCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			cl.Close()
		}
	}()
	gen, err := workload.NewGenerator(cfg.Workload, workload.Config{
		Population: population,
		Theta:      cfg.Theta,
		WriteRatio: cfg.WriteRatio,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Each wave slot owns a reusable key/value buffer (shard devices copy
	// on Put, and a wave completes before the next reuses the slots).
	batch := cfg.batchSize()
	kbufs := make([][]byte, batch)
	vbufs := make([][]byte, batch)
	for done := uint64(0); done < gen.Population(); {
		n := min(uint64(batch), gen.Population()-done)
		for j := uint64(0); j < n; j++ {
			id := gen.LoadID(done + j)
			kbufs[j] = workload.AppendKey(kbufs[j][:0], cfg.Workload, id)
			vbufs[j] = workload.AppendValue(vbufs[j][:0], cfg.Workload, id, 0)
		}
		br, err := cl.MultiPut(kbufs[:n], vbufs[:n])
		if err != nil {
			return nil, fmt.Errorf("harness: cluster warm-up: %w", err)
		}
		if err := br.FirstErr(); err != nil {
			return nil, fmt.Errorf("harness: cluster warm-up put: %w", err)
		}
		done += n
	}
	warm, epochs, err := execBarrier(cl)
	if err != nil {
		return nil, err
	}
	return &warmCluster{cl: cl, gen: gen, warm: warm, epochs: epochs}, nil
}

// target is the warmed cluster as an open-loop target. shardOps, when
// non-nil, tallies attempts per primary shard.
func (w *warmCluster) target(shardOps []int64) *clusterTarget {
	return &clusterTarget{cl: w.cl, epochs: w.epochs, tracers: w.cl.Tracers(), shardOps: shardOps}
}

// RunCluster executes warm-up + measurement on a sharded cluster: batch
// waves in closed loop, or the open-loop client with (a) the kill / rebuild
// / add-shard schedule fired on the arrival clock before each submission;
// (b) migration and rebuild streams stepped between client submissions and
// drained before the measurement ends; (c) reads windowed around the outage;
// and (d) the acknowledged-write oracle, read back after the measurement.
func RunCluster(cfg ClusterRunConfig) (*ClusterResult, error) {
	w, err := warmUpCluster(&cfg)
	if err != nil {
		return nil, err
	}
	cl, gen := w.cl, w.gen
	defer cl.Close()
	res := cfg.placeholder()
	res.Router = cfg.Cluster.Router.String()
	res.Population = gen.Population()
	res.ShardOps = make([]int64, cfg.Cluster.Shards)

	if cfg.Workload.Arrival.Open() {
		return runOpen(&cfg, w, res)
	}

	targetBytes := int64(execFactor * float64(cfg.capacityBytes()))
	var issuedBytes int64

	// Execution: generate a wave of ops, split into the wave's puts and
	// gets, and submit puts first so a read of a key written in the same
	// wave observes the write (matching the generator's version counters).
	batch := cfg.batchSize()
	putKeys := make([][]byte, 0, batch)
	putVals := make([][]byte, 0, batch)
	getKeys := make([][]byte, 0, batch)
	getIDs := make([]uint64, 0, batch)
	for issuedBytes < targetBytes && (cfg.MaxOps == 0 || res.Ops < cfg.MaxOps) {
		putKeys, putVals = putKeys[:0], putVals[:0]
		getKeys, getIDs = getKeys[:0], getIDs[:0]
		for i := 0; i < batch; i++ {
			if issuedBytes >= targetBytes || (cfg.MaxOps > 0 && res.Ops+int64(len(putKeys)+len(getKeys)) >= cfg.MaxOps) {
				break
			}
			op := gen.Next()
			switch op.Kind {
			case workload.OpPut:
				putKeys = append(putKeys, op.Key)
				putVals = append(putVals, op.Value)
			default:
				// The batch API carries no scans; a scan-free mix is the
				// cluster methodology (ScanRatio is not a knob here).
				getKeys = append(getKeys, op.Key)
				getIDs = append(getIDs, op.ID)
			}
			issuedBytes += op.Bytes()
		}
		if len(putKeys) > 0 {
			br, err := cl.MultiPut(putKeys, putVals)
			if err != nil {
				return nil, fmt.Errorf("harness: cluster put wave: %w", err)
			}
			if err := br.FirstErr(); err != nil {
				return nil, fmt.Errorf("harness: cluster put: %w", err)
			}
			for i, comp := range br.Completions {
				res.WriteLat.Record(comp.Latency())
				res.ShardOps[br.Shards[i]]++
			}
			res.BatchLat.Record(waveSpan(br, cfg.Cluster.Shards))
			res.Ops += int64(len(putKeys))
		}
		if len(getKeys) > 0 {
			br, err := cl.MultiGet(getKeys)
			if err != nil {
				return nil, fmt.Errorf("harness: cluster get wave: %w", err)
			}
			for i, comp := range br.Completions {
				if br.Errs[i] != nil {
					return nil, fmt.Errorf("harness: cluster get %x: %w", getKeys[i][:8], br.Errs[i])
				}
				res.ReadLat.Record(comp.Latency())
				res.ShardOps[br.Shards[i]]++
				if !cfg.NoVerify {
					if !bytes.Equal(comp.Value, gen.ExpectedValue(getIDs[i])) {
						return nil, fmt.Errorf("harness: cluster read of id %d returned wrong payload", getIDs[i])
					}
					res.Verified++
				}
			}
			res.BatchLat.Record(waveSpan(br, cfg.Cluster.Shards))
			res.Ops += int64(len(getKeys))
		}
	}

	return finishCluster(cfg, w, res)
}

// finishCluster collects the execution phase's fleet-wide rollups — shared
// by the closed-loop (batch-wave) and open-loop paths.
func finishCluster(cfg ClusterRunConfig, w *warmCluster, res *ClusterResult) (*ClusterResult, error) {
	cl := w.cl
	if _, err := cl.Barrier(); err != nil {
		return nil, err
	}
	finalStats := cl.Stats()
	res.SimSeconds = execSeconds(finalStats, w.epochs)
	if res.SimSeconds > 0 {
		res.IOPS = float64(res.Ops) / res.SimSeconds
		if res.Open != nil {
			res.Open.Goodput = float64(res.Open.GoodOps) / res.SimSeconds
		}
	}
	res.QueueWaitLat = finalStats.QueueWait
	res.ServiceLat = finalStats.Service
	res.Total = finalStats.Flash
	res.Exec = finalStats.Flash.Sub(w.warm.Flash)
	if res.Ops > 0 {
		res.HottestShare = float64(slices.Max(res.ShardOps)) / float64(res.Ops)
	}
	if fs, err := cl.FleetStats(); err == nil {
		res.ReplStats = fs.Repl
	}
	if cfg.Cluster.Device.Trace != nil {
		res.Cluster = cl
	}
	return res, nil
}
