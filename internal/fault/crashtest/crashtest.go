// Package crashtest is the power-cut crash-consistency harness: it replays
// one deterministic workload against a device while cutting power at evenly
// spaced flash-operation boundaries, remounts after each cut, and checks the
// recovered contents against an oracle of allowed per-key states.
//
// One sweep is: a fault-free pilot run to learn the workload's total flash
// operation count, then one trial per cut point. Each trial opens a fresh
// device with a fault plan whose one-shot power cut fires before the k-th
// flash op, replays the workload until the cut unwinds it, power-cycles, and
// verifies that
//
//   - every key reads back either its last synced version or a version
//     written (or in flight) after the last completed Sync — nothing else;
//   - a full scan returns exactly the recovered key set, in order, with no
//     resurrected or invented pairs;
//   - the device still works: a post-recovery batch of writes followed by a
//     Sync and an exact read-back converges to the new state.
//
// Everything is deterministic: the workload is generated once from the seed
// and replayed byte-for-byte in every trial, and the fault plan's decisions
// are pure hashes of (seed, op index). Running a trial twice yields
// bit-for-bit identical fault counters.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"

	"anykey"
	"anykey/internal/fault"
)

// Config describes one crash sweep.
type Config struct {
	// Opts configures the device under test. Opts.Faults is ignored — each
	// trial installs its own plan. The design must support PowerCycle
	// (AnyKey variants; PinK has no modelled recovery).
	Opts anykey.Options

	// Ops is the workload length in operations (default 1200).
	Ops int

	// Keys is the keyspace size (default 150). Small enough that keys are
	// overwritten and deleted repeatedly, which is what makes resurrection
	// detectable.
	Keys int

	// Seed drives workload generation and the trials' fault plans.
	Seed int64

	// Trials is the number of cut points, spread evenly across the pilot
	// run's flash operations (default 4).
	Trials int

	// SyncEvery, when positive, follows every SyncEvery-th operation with a
	// Sync (on top of the generated ones): the sync-heavy shape, where the
	// write-buffer journal rather than the buffer flush makes writes durable.
	SyncEvery int

	// EveryBoundary replaces the evenly spread Trials with one trial per
	// flash operation of the pilot run: the power is cut before each in turn.
	// For short workloads only — the sweep is quadratic in their length.
	EveryBoundary bool

	// Rates optionally layers background fault injection (transient read
	// errors, program/erase failures) over every trial. Seed and CutAtOp in
	// it are overwritten per trial.
	Rates fault.Plan
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 1200
	}
	if c.Keys == 0 {
		c.Keys = 150
	}
	if c.Trials == 0 {
		c.Trials = 4
	}
	return c
}

// TrialResult describes one cut trial.
type TrialResult struct {
	// CutAtOp is the flash-op boundary the power cut fired before.
	CutAtOp int64
	// CutFired reports whether the cut actually fired during the replay
	// (background fault rates can shift a trial's flash traffic relative to
	// the pilot; a cut point beyond the trial's own total never fires).
	CutFired bool
	// OpsApplied is how many workload operations completed before the cut.
	OpsApplied int
	// Recovery is the remount's recovery report.
	Recovery anykey.RecoveryInfo
	// Faults is the trial's final injected-fault accounting.
	Faults anykey.FaultCounters
}

// Result is the outcome of a sweep whose every trial verified clean.
type Result struct {
	// PilotFlashOps is the fault-free run's total flash operation count,
	// the bound for cut-point placement.
	PilotFlashOps int64
	// Pilot is the fault-free run's final statistics: what the workload made
	// the device do, for tests that need a sweep to have covered something.
	Pilot  anykey.StatsSnapshot
	Trials []TrialResult
}

// op kinds.
const (
	opPut = iota
	opDelete
	opSync
)

type op struct {
	kind int
	key  int
	val  []byte
}

// genOps builds the deterministic workload: mostly puts (a sprinkling of
// multi-page values to exercise log fragment chains), some deletes, and a
// Sync roughly every 40 operations so trials exercise both freshly-synced
// and long-unsynced cut windows — or, with SyncEvery, no window longer than
// that many operations.
func genOps(cfg Config) []op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := make([]op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		if cfg.SyncEvery > 0 && i%cfg.SyncEvery == cfg.SyncEvery-1 {
			ops = append(ops, op{kind: opSync})
			continue
		}
		r := rng.Intn(100)
		switch {
		case r < 3:
			ops = append(ops, op{kind: opSync})
		case r < 13:
			ops = append(ops, op{kind: opDelete, key: rng.Intn(cfg.Keys)})
		default:
			size := 16 + rng.Intn(240)
			if rng.Intn(30) == 0 {
				// Near the half-page value cap: such values straddle log
				// page boundaries, exercising fragment-chain recovery.
				size = 1500 + rng.Intn(2300)
			}
			ops = append(ops, op{kind: opPut, key: rng.Intn(cfg.Keys), val: value(i, rng.Intn(cfg.Keys), size)})
		}
	}
	return ops
}

// value builds a self-describing value: the (op, key) prefix makes every
// version unique, so a corrupt or resurrected read can never collide with an
// allowed one by accident.
func value(opIdx, key, size int) []byte {
	v := make([]byte, size)
	prefix := fmt.Sprintf("op%06d-k%05d-", opIdx, key)
	copy(v, prefix)
	for i := len(prefix); i < size; i++ {
		v[i] = byte('a' + (opIdx+i)%23)
	}
	return v
}

func keyBytes(k int) []byte { return []byte(fmt.Sprintf("ct-%05d", k)) }

// Run executes the sweep. A non-nil error is a consistency violation (or a
// harness failure such as overfilling the device); the Result is valid only
// on nil error.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	ops := genOps(cfg)

	// Pilot: fault-free, to completion. Its flash-op total bounds the sweep.
	pilot := cfg.Opts
	pilot.Faults = nil
	dev, err := anykey.Open(pilot)
	if err != nil {
		return Result{}, fmt.Errorf("crashtest: pilot open: %w", err)
	}
	for i := range ops {
		if _, err := applyOp(dev, nil, &ops[i]); err != nil {
			return Result{}, fmt.Errorf("crashtest: pilot op %d: %w", i, err)
		}
	}
	fc := dev.Flash()
	total := fc.TotalReads() + fc.TotalWrites() + fc.Erases
	res := Result{PilotFlashOps: total, Pilot: dev.StatsSnapshot()}

	trials, stride := int64(cfg.Trials), total/int64(cfg.Trials+1)
	if cfg.EveryBoundary {
		trials, stride = total, 1
	}
	if stride == 0 {
		return Result{}, fmt.Errorf("crashtest: pilot ran only %d flash ops, too few for %d trials", total, cfg.Trials)
	}
	for t := int64(1); t <= trials; t++ {
		tr, err := runTrial(cfg, ops, stride*t)
		if err != nil {
			return Result{}, fmt.Errorf("crashtest: trial cut@%d: %w", stride*t, err)
		}
		res.Trials = append(res.Trials, tr)
	}
	return res, nil
}

// RunTrial executes a single cut trial (exported for determinism tests that
// compare two runs of the same trial).
func RunTrial(cfg Config, cutAtOp int64) (TrialResult, error) {
	cfg = cfg.withDefaults()
	return runTrial(cfg, genOps(cfg), cutAtOp)
}

// applyOp applies one workload op, updating the oracle (when non-nil) per
// the durability rules: acknowledged and in-flight writes enter the pending
// set, a completed Sync commits. It reports whether a power cut unwound the
// operation.
func applyOp(dev *anykey.Device, orc *oracle, o *op) (bool, error) {
	var err error
	switch o.kind {
	case opPut:
		_, err = dev.Put(keyBytes(o.key), o.val)
		if orc != nil && (err == nil || errors.Is(err, anykey.ErrPowerCut)) {
			orc.write(o.key, o.val)
		}
	case opDelete:
		_, err = dev.Delete(keyBytes(o.key))
		if orc != nil && (err == nil || errors.Is(err, anykey.ErrPowerCut)) {
			orc.write(o.key, nil)
		}
	case opSync:
		_, err = dev.Sync()
		if orc != nil && err == nil {
			orc.syncOK()
		}
	}
	if errors.Is(err, anykey.ErrPowerCut) {
		return true, nil
	}
	return false, err
}

func runTrial(cfg Config, ops []op, cutAtOp int64) (TrialResult, error) {
	plan := cfg.Rates
	plan.Seed = cfg.Seed
	plan.CutAtOp = cutAtOp
	opts := cfg.Opts
	opts.Faults = &plan
	dev, err := anykey.Open(opts)
	if err != nil {
		return TrialResult{}, fmt.Errorf("open: %w", err)
	}

	tr := TrialResult{CutAtOp: cutAtOp}
	orc := newOracle()
	for i := range ops {
		cut, err := applyOp(dev, orc, &ops[i])
		if err != nil {
			return tr, fmt.Errorf("op %d: %w", i, err)
		}
		if cut {
			tr.CutFired = true
			break
		}
		tr.OpsApplied++
	}
	if !tr.CutFired {
		// The cut point fell beyond the workload's own flash traffic; close
		// the run with a Sync. The one-shot cut may still fire here — or
		// even later, during verification reads — and is handled the same
		// way: power-cycle, then verify against the allowed sets.
		switch _, err := dev.Sync(); {
		case err == nil:
			orc.syncOK()
		case errors.Is(err, anykey.ErrPowerCut):
			tr.CutFired = true
		default:
			return tr, fmt.Errorf("final sync: %w", err)
		}
	}
	if tr.CutFired {
		if err := dev.PowerCycle(); err != nil {
			return tr, fmt.Errorf("power cycle: %w", err)
		}
	}

	err = verifyAndConverge(cfg, dev, orc)
	if errors.Is(err, anykey.ErrPowerCut) && !tr.CutFired {
		// The cut fired mid-verification (its boundary lay beyond the
		// workload but within the verify reads). A plan's cut is one-shot,
		// so after this remount the re-verification runs cut-free.
		tr.CutFired = true
		if err := dev.PowerCycle(); err != nil {
			return tr, fmt.Errorf("power cycle after late cut: %w", err)
		}
		err = verifyAndConverge(cfg, dev, orc)
	}
	if err != nil {
		return tr, err
	}

	st := dev.StatsSnapshot()
	tr.Recovery, tr.Faults = st.Recovery, st.Faults
	return tr, nil
}

// verifyAndConverge checks the device against the oracle's allowed sets,
// adopts the observed state, cross-checks it with a full scan, then drives
// the device forward — fresh writes, a Sync, an exact read-back — to prove
// the recovered device still functions. Any returned error either describes
// a consistency violation or wraps the underlying operation failure.
func verifyAndConverge(cfg Config, dev *anykey.Device, orc *oracle) error {
	// Every key must read back an allowed version; the recovered state is
	// adopted as the new durable truth.
	for k := 0; k < cfg.Keys; k++ {
		v, _, err := dev.Get(keyBytes(k))
		switch {
		case err == nil:
		case errors.Is(err, anykey.ErrNotFound):
			v = nil
		default:
			return fmt.Errorf("get key %d after recovery: %w", k, err)
		}
		if !orc.allowed(k, v) {
			return fmt.Errorf("key %d recovered to disallowed state %q", k, clip(v))
		}
		orc.adopt(k, v)
	}

	// Full scan: exactly the adopted keys, in order, no resurrections.
	pairs, _, err := dev.Scan(keyBytes(0), cfg.Keys+1)
	if err != nil {
		return fmt.Errorf("scan after recovery: %w", err)
	}
	want := 0
	for k := 0; k < cfg.Keys; k++ {
		if orc.committed[k] != nil {
			want++
		}
	}
	if len(pairs) != want {
		return fmt.Errorf("scan returned %d pairs, adopted state has %d", len(pairs), want)
	}
	for _, p := range pairs {
		var k int
		if _, err := fmt.Sscanf(string(p.Key), "ct-%d", &k); err != nil {
			return fmt.Errorf("scan returned alien key %q", p.Key)
		}
		if !sameVersion(p.Value, orc.committed[k]) {
			return fmt.Errorf("scan key %d value diverges from Get", k)
		}
	}

	// Post-recovery convergence: fresh writes and deletes, a Sync, then an
	// exact read-back — the recovered device must behave like a new one.
	// Writes are recorded as pending even when a late cut unwinds them, so
	// a re-verification after the remount still has correct allowed sets.
	for k := 0; k < cfg.Keys; k++ {
		switch {
		case k%3 == 0:
			nv := value(1<<20+k, k, 64)
			orc.write(k, nv)
			if _, err := dev.Put(keyBytes(k), nv); err != nil {
				return fmt.Errorf("post-recovery put key %d: %w", k, err)
			}
		case k%7 == 0:
			orc.write(k, nil)
			if _, err := dev.Delete(keyBytes(k)); err != nil {
				return fmt.Errorf("post-recovery delete key %d: %w", k, err)
			}
		}
	}
	if _, err := dev.Sync(); err != nil {
		return fmt.Errorf("post-recovery sync: %w", err)
	}
	orc.syncOK()
	for k := 0; k < cfg.Keys; k++ {
		v, _, err := dev.Get(keyBytes(k))
		switch {
		case err == nil:
		case errors.Is(err, anykey.ErrNotFound):
			v = nil
		default:
			return fmt.Errorf("post-recovery get key %d: %w", k, err)
		}
		if !sameVersion(v, orc.committed[k]) {
			return fmt.Errorf("key %d did not converge after recovery", k)
		}
	}
	return nil
}

func clip(v []byte) []byte {
	if len(v) > 48 {
		return v[:48]
	}
	return v
}
