// Transaction measurement runs: contended read-modify-write traffic driven
// through the cluster's transaction layer, comparing serialized OCC against
// doppel-style split-phase execution, plus the overhead of atomic (2PC)
// batches over best-effort Multi* waves.
//
// The workload is a bank of decimal counters under Zipfian skew. Each wave
// opens Clients transactions, interleaves their reads and increments (so
// same-wave writers to one key genuinely race), then commits them in client
// order; a validation conflict retries the whole transaction — fresh reads,
// same key choices — up to the cluster's TxnOptions retry budget. Every
// committed increment is tallied per key, and the run ends with an exactness
// oracle: after the final flush, each counter must equal exactly the sum of
// its committed deltas — lost updates and phantom merges both fail the run.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/zipfian"
)

// Transaction run modes.
const (
	// TxnModeOCC serializes contended keys through validate-at-commit with
	// bounded retry (hot-key splitting disabled).
	TxnModeOCC = "occ"
	// TxnModeSplit enables the contention detector: keys past the conflict
	// threshold move into a split phase where increments batch per shard and
	// merge at phase close.
	TxnModeSplit = "split"
	// TxnModeAtomic measures AtomicMultiPut batches (2PC per wave).
	TxnModeAtomic = "atomic"
	// TxnModeBestEffort measures plain MultiPut batches of the same shape —
	// the baseline the atomic overhead is measured against.
	TxnModeBestEffort = "besteffort"
)

// TxnRunConfig describes one transaction measurement cell. All fields are
// scalars (plus the comparable ClusterOptions), so the parallel runner can
// memoize on it.
type TxnRunConfig struct {
	Cluster anykey.ClusterOptions

	// Mode selects the concurrency-control flavor (TxnMode*, default OCC).
	Mode string

	// Theta is the Zipfian skew over the counter population (default 0.99);
	// WriteRatio the per-op probability of an increment vs a read (default
	// 0.2).
	Theta      float64
	WriteRatio float64

	Seed int64

	// Clients transactions run concurrently per wave (default 8), each
	// issuing TxOps operations (default 2), for Waves waves (default 400).
	Clients int
	TxOps   int
	Waves   int

	// Population is the number of distinct counter keys (default 4096).
	Population uint64

	// BatchOps sizes the atomic/besteffort batches (default 16).
	BatchOps int
}

func (c *TxnRunConfig) defaults() error {
	switch c.Mode {
	case "":
		c.Mode = TxnModeOCC
	case TxnModeOCC, TxnModeSplit, TxnModeAtomic, TxnModeBestEffort:
	default:
		return fmt.Errorf("harness: unknown txn mode %q", c.Mode)
	}
	// The mode decides the split-phase policy: OCC-only cells disable the
	// contention detector outright; split cells promote after 4 conflicts so
	// quick runs reach the split regime too.
	if c.Mode == TxnModeSplit {
		if c.Cluster.Txn.HotThreshold == 0 {
			c.Cluster.Txn.HotThreshold = 4
		}
	} else if c.Cluster.Txn.HotThreshold == 0 {
		c.Cluster.Txn.HotThreshold = -1
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.WriteRatio == 0 {
		c.WriteRatio = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.TxOps == 0 {
		c.TxOps = 2
	}
	if c.Waves == 0 {
		c.Waves = 400
	}
	if c.Population == 0 {
		c.Population = 4096
	}
	if c.BatchOps == 0 {
		c.BatchOps = 16
	}
	return nil
}

// TxnResult carries one transaction cell's measurements.
type TxnResult struct {
	System string
	Mode   string

	Theta      float64
	WriteRatio float64

	// Txns is the number of logical transactions offered; Committed and
	// Aborted partition their outcomes (Aborted = retry budget exhausted).
	// Conflicts counts individual validation failures, Retries the re-runs
	// they triggered.
	Txns      int64
	Committed int64
	Aborted   int64
	Conflicts int64
	Retries   int64

	// Layer is the coordinator's own counter snapshot (split merges, hot
	// keys, 2PC prepares, …).
	Layer anykey.TxnStats

	// GoodTxnPerSec is committed transactions per simulated second (the
	// slowest shard's execution elapsed, final flush included); OpsPerSec
	// counts their constituent operations.
	GoodTxnPerSec float64
	OpsPerSec     float64
	SimSeconds    float64

	// BatchLat is the merged batch-span histogram (atomic/besteffort modes).
	BatchLat stats.Histogram
	Batches  int64

	// Verified counts oracle checks that passed: per-counter exactness for
	// occ/split, full-batch visibility for atomic/besteffort.
	Verified int64
}

// txnKey renders counter key i. Keys hash across shards like any other.
func txnKey(buf []byte, id uint64) []byte {
	buf = buf[:0]
	buf = append(buf, "txn:"...)
	return strconv.AppendUint(buf, id, 10)
}

// RunTxn executes one transaction measurement cell.
func RunTxn(cfg TxnRunConfig) (*TxnResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	cl, err := anykey.OpenCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res := cfg.placeholder()
	if cfg.Mode == TxnModeAtomic || cfg.Mode == TxnModeBestEffort {
		return runTxnBatches(cfg, cl, res)
	}
	return runTxnWaves(cfg, cl, res)
}

// runTxnWaves drives the OCC / split-phase counter workload.
func runTxnWaves(cfg TxnRunConfig, cl *anykey.Cluster, res *TxnResult) (*TxnResult, error) {
	// Warm-up: every counter starts at 0, loaded in MultiPut waves.
	const warmBatch = 512
	keys := make([][]byte, 0, warmBatch)
	vals := make([][]byte, 0, warmBatch)
	zero := []byte("0")
	for id := uint64(0); id < cfg.Population; {
		keys, vals = keys[:0], vals[:0]
		for len(keys) < warmBatch && id < cfg.Population {
			keys = append(keys, txnKey(nil, id))
			vals = append(vals, zero)
			id++
		}
		br, err := cl.MultiPut(keys, vals)
		if err != nil {
			return nil, fmt.Errorf("harness: txn warm-up: %w", err)
		}
		if err := br.FirstErr(); err != nil {
			return nil, fmt.Errorf("harness: txn warm-up put: %w", err)
		}
	}
	_, epochs, err := execBarrier(cl)
	if err != nil {
		return nil, err
	}

	zipf, err := zipfian.New(cfg.Population, cfg.Theta)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxRetries := cfg.Cluster.Txn.MaxRetries // normalized by Validate

	type txOp struct {
		id    uint64
		write bool
	}
	expected := make(map[uint64]int64, cfg.Population)
	ops := make([][]txOp, cfg.Clients)
	txs := make([]*anykey.Tx, cfg.Clients)
	kbuf := make([]byte, 0, 16)

	runOps := func(tx *anykey.Tx, list []txOp) error {
		for _, op := range list {
			kbuf = txnKey(kbuf, op.id)
			if op.write {
				if _, err := tx.Incr(kbuf, 1); err != nil {
					return err
				}
			} else if _, err := tx.Get(kbuf); err != nil {
				return err
			}
		}
		return nil
	}
	tally := func(list []txOp) {
		for _, op := range list {
			if op.write {
				expected[op.id]++
			}
		}
	}

	for wave := 0; wave < cfg.Waves; wave++ {
		// Draw every client's ops up front, then interleave execution one
		// operation deep across clients — writers to a shared key genuinely
		// overlap, so their commits race at validation.
		for c := 0; c < cfg.Clients; c++ {
			ops[c] = ops[c][:0]
			for j := 0; j < cfg.TxOps; j++ {
				ops[c] = append(ops[c], txOp{
					id:    zipf.NextScrambled(rng),
					write: rng.Float64() < cfg.WriteRatio,
				})
			}
			tx, err := cl.BeginTxn()
			if err != nil {
				return nil, err
			}
			txs[c] = tx
		}
		for j := 0; j < cfg.TxOps; j++ {
			for c := 0; c < cfg.Clients; c++ {
				if err := runOps(txs[c], ops[c][j:j+1]); err != nil {
					return nil, fmt.Errorf("harness: txn wave %d client %d: %w", wave, c, err)
				}
			}
		}
		for c := 0; c < cfg.Clients; c++ {
			res.Txns++
			err := txs[c].Commit()
			attempts := 0
			for err != nil && errorsIsConflict(err) && attempts < maxRetries {
				res.Conflicts++
				res.Retries++
				attempts++
				tx, berr := cl.BeginTxn()
				if berr != nil {
					return nil, berr
				}
				if rerr := runOps(tx, ops[c]); rerr != nil {
					return nil, fmt.Errorf("harness: txn retry: %w", rerr)
				}
				err = tx.Commit()
			}
			if err != nil {
				if !errorsIsConflict(err) {
					return nil, fmt.Errorf("harness: txn commit: %w", err)
				}
				res.Conflicts++
				res.Aborted++
				continue
			}
			res.Committed++
			tally(ops[c])
		}
	}

	// The final Sync merges any open split phase and makes everything
	// durable — split mode pays its merge cost inside the measured window.
	if _, err := cl.Sync(); err != nil {
		return nil, err
	}
	res.SimSeconds = execSeconds(cl.Stats(), epochs)
	if res.SimSeconds > 0 {
		res.GoodTxnPerSec = float64(res.Committed) / res.SimSeconds
		res.OpsPerSec = float64(res.Committed*int64(cfg.TxOps)) / res.SimSeconds
	}
	res.Layer = cl.TxnStats()

	// Exactness oracle: every counter equals the sum of its committed
	// increments — a lost update or a double merge both show up here.
	for id := uint64(0); id < cfg.Population; id++ {
		kbuf = txnKey(kbuf, id)
		v, _, err := cl.Get(kbuf)
		if err != nil {
			return nil, fmt.Errorf("harness: txn oracle get %d: %w", id, err)
		}
		got, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("harness: txn oracle parse %d: %w", id, err)
		}
		if got != expected[id] {
			return nil, fmt.Errorf("harness: txn oracle: counter %d = %d, expected %d (mode %s)",
				id, got, expected[id], cfg.Mode)
		}
		res.Verified++
	}
	return res, nil
}

// errorsIsConflict reports whether err is an OCC conflict (retryable).
func errorsIsConflict(err error) bool {
	return errors.Is(err, anykey.ErrTxnConflict)
}

// runTxnBatches measures atomic (2PC) vs best-effort Multi* batch waves
// over disjoint keys: the pure protocol overhead, no contention.
func runTxnBatches(cfg TxnRunConfig, cl *anykey.Cluster, res *TxnResult) (*TxnResult, error) {
	_, epochs, err := execBarrier(cl)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, cfg.BatchOps)
	vals := make([][]byte, cfg.BatchOps)
	id := uint64(0)
	for wave := 0; wave < cfg.Waves; wave++ {
		for i := 0; i < cfg.BatchOps; i++ {
			keys[i] = txnKey(nil, id)
			vals[i] = []byte(fmt.Sprintf("v%012d", id))
			id++
		}
		var br *anykey.BatchResult
		var err error
		if cfg.Mode == TxnModeAtomic {
			br, err = cl.AtomicMultiPut(keys, vals)
		} else {
			br, err = cl.MultiPut(keys, vals)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s wave %d: %w", cfg.Mode, wave, err)
		}
		if err := br.FirstErr(); err != nil {
			return nil, fmt.Errorf("harness: %s put: %w", cfg.Mode, err)
		}
		res.BatchLat.Record(br.Latency())
		res.Batches++
		res.Committed += int64(cfg.BatchOps)
	}
	if _, err := cl.Sync(); err != nil {
		return nil, err
	}
	res.SimSeconds = execSeconds(cl.Stats(), epochs)
	if res.SimSeconds > 0 {
		res.OpsPerSec = float64(res.Committed) / res.SimSeconds
		res.GoodTxnPerSec = float64(res.Batches) / res.SimSeconds
	}
	res.Layer = cl.TxnStats()
	res.Txns = res.Batches

	// Visibility oracle: every batch key holds exactly its written value.
	kbuf := make([]byte, 0, 16)
	for check := uint64(0); check < id; check++ {
		kbuf = txnKey(kbuf, check)
		v, _, err := cl.Get(kbuf)
		if err != nil {
			return nil, fmt.Errorf("harness: batch oracle get %d: %w", check, err)
		}
		if string(v) != fmt.Sprintf("v%012d", check) {
			return nil, fmt.Errorf("harness: batch oracle: key %d holds %q", check, v)
		}
		res.Verified++
	}
	return res, nil
}
