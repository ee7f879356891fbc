package crashtest_test

import (
	"testing"

	"anykey"
	"anykey/internal/fault"
	"anykey/internal/fault/crashtest"
)

// sweepConfig is a small device (16 MiB, 2×2 chips) with a small memtable,
// so the workload crosses many flushes and compactions — the windows where
// a power cut actually tears multi-page writes.
func sweepConfig(design anykey.Design) crashtest.Config {
	return crashtest.Config{
		Opts: anykey.Options{
			Design:          design,
			CapacityMB:      16,
			Channels:        2,
			ChipsPerChannel: 2,
			MemtableBytes:   16 << 10,
			Seed:            1,
		},
		Ops:    900,
		Keys:   120,
		Seed:   7,
		Trials: 3,
	}
}

// TestCrashSweepAnyKeyVariants sweeps power cuts across every AnyKey variant
// that supports recovery. PinK is excluded by design: it has no modelled
// power-cycle path (its pinned level lists live in DRAM only).
func TestCrashSweepAnyKeyVariants(t *testing.T) {
	for _, d := range []anykey.Design{anykey.DesignAnyKey, anykey.DesignAnyKeyPlus, anykey.DesignAnyKeyMinus} {
		t.Run(d.String(), func(t *testing.T) {
			res, err := crashtest.Run(sweepConfig(d))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trials) < 3 {
				t.Fatalf("sweep ran %d trials, want ≥ 3", len(res.Trials))
			}
			fired := 0
			for _, tr := range res.Trials {
				if tr.CutFired {
					fired++
					if tr.Faults.PowerCuts != 1 {
						t.Errorf("trial cut@%d: PowerCuts = %d, want 1", tr.CutAtOp, tr.Faults.PowerCuts)
					}
					if !tr.Recovery.Recovered {
						t.Errorf("trial cut@%d: recovery did not run", tr.CutAtOp)
					}
				}
			}
			if fired != len(res.Trials) {
				t.Fatalf("only %d/%d trials fired their cut (pilot %d flash ops)",
					fired, len(res.Trials), res.PilotFlashOps)
			}
		})
	}
}

// TestCrashSweepWithBackgroundFaults layers transient read errors and
// program/erase failures (grown-bad blocks) over the cuts: recovery must
// hold even when the crash interacts with block retirement.
func TestCrashSweepWithBackgroundFaults(t *testing.T) {
	cfg := sweepConfig(anykey.DesignAnyKeyPlus)
	cfg.Rates = fault.Plan{
		ReadErrorRate:   0.01,
		ProgramFailRate: 0.002,
		EraseFailRate:   0.002,
	}
	res, err := crashtest.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	for _, tr := range res.Trials {
		injected += tr.Faults.Total()
	}
	if injected == 0 {
		t.Fatal("background fault rates injected nothing")
	}
}

// syncHeavyConfig is the shape where the write-buffer journal actually runs:
// a Sync at least every fourth operation on the sweep device, whose 16 KiB
// buffer bounds the journal at two pages — so every other sync meets the
// bound. While the buffer still fits one page that sync writes a checkpoint;
// once it has outgrown it the sync falls back to a buffer flush and starts
// the next journal generation, whose first checkpoint erases the block the
// flush retired. The workload is long enough for a dozen generations and
// short enough to cut before every single flash operation.
func syncHeavyConfig(design anykey.Design) crashtest.Config {
	cfg := sweepConfig(design)
	cfg.Ops = 1200
	cfg.Keys = 60
	cfg.SyncEvery = 4
	cfg.EveryBoundary = true
	return cfg
}

// TestCrashSweepSyncHeavy cuts the power at every flash-op boundary of the
// sync-heavy workload — mid-journal-program, between the parts of a batch,
// inside a checkpoint, between its durability and the erase that follows,
// inside the fallback flush, after that flush and before the journal it
// retired is erased — and holds the same oracle as every other sweep. The
// last pass layers background faults on, so journal programs fail and
// re-issue into fresh blocks too.
func TestCrashSweepSyncHeavy(t *testing.T) {
	check := func(t *testing.T, cfg crashtest.Config) {
		res, err := crashtest.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each fallback retires one journal generation and opens the next;
		// within a generation the bound is met by checkpoints, which erase
		// the journal blocks that have died.
		if p := res.Pilot; p.SyncFlushes < 2 || p.JournalCheckpoints < 2 || p.Flash.Erases == 0 ||
			p.JournalPages == 0 || p.Syncs < int64(cfg.Ops/cfg.SyncEvery) {
			t.Fatalf("pilot ran %d syncs, %d journal pages, %d checkpoints, %d bound fallbacks, %d erases: the sweep does not span two journal generations with checkpoints in them",
				p.Syncs, p.JournalPages, p.JournalCheckpoints, p.SyncFlushes, p.Flash.Erases)
		}
		if int64(len(res.Trials)) != res.PilotFlashOps {
			t.Fatalf("%d trials for %d flash ops", len(res.Trials), res.PilotFlashOps)
		}
		var replayed, stale, torn, injected int64
		for _, tr := range res.Trials {
			replayed += tr.Recovery.JournalEntriesReplayed
			stale += tr.Recovery.StaleJournalPagesDiscarded
			torn += tr.Recovery.TornPagesSkipped
			injected += tr.Faults.Total() - tr.Faults.PowerCuts
		}
		if cfg.Rates.Enabled() && injected == 0 {
			t.Fatal("background fault rates injected nothing")
		}
		if replayed == 0 || stale == 0 || torn == 0 {
			t.Fatalf("over %d trials recovery replayed %d journal entries, discarded %d stale journal pages and skipped %d torn pages; want all three",
				len(res.Trials), replayed, stale, torn)
		}
		t.Logf("%d trials: %d journal entries replayed, %d stale journal pages discarded, %d torn pages skipped",
			len(res.Trials), replayed, stale, torn)
	}
	for _, d := range []anykey.Design{anykey.DesignAnyKey, anykey.DesignAnyKeyPlus, anykey.DesignAnyKeyMinus} {
		t.Run(d.String(), func(t *testing.T) { check(t, syncHeavyConfig(d)) })
	}
	t.Run("faults", func(t *testing.T) {
		cfg := syncHeavyConfig(anykey.DesignAnyKeyPlus)
		cfg.Rates = fault.Plan{ReadErrorRate: 0.01, ProgramFailRate: 0.01, EraseFailRate: 0.01}
		check(t, cfg)
	})
}

// TestCrashMatrix is the wide sweep: every recovering design × several
// workload seeds × 8 cut positions, plus a pass with background faults
// layered on. It found the log-before-tree ordering bug in writeLevel;
// CI runs it as the crash-matrix job. Skipped under -short.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is the long sweep")
	}
	for _, d := range []anykey.Design{anykey.DesignAnyKey, anykey.DesignAnyKeyPlus, anykey.DesignAnyKeyMinus} {
		for _, seed := range []int64{3, 7, 11, 19, 23, 31} {
			cfg := sweepConfig(d)
			cfg.Seed = seed
			cfg.Trials = 8
			res, err := crashtest.Run(cfg)
			if err != nil {
				t.Errorf("%v seed %d: %v", d, seed, err)
				continue
			}
			var torn int64
			for _, tr := range res.Trials {
				torn += tr.Recovery.TornPagesSkipped
			}
			t.Logf("%v seed %d: %d trials, %d torn pages skipped", d, seed, len(res.Trials), torn)
		}
	}
	for _, seed := range []int64{3, 7, 11} {
		cfg := sweepConfig(anykey.DesignAnyKeyPlus)
		cfg.Seed = seed
		cfg.Trials = 6
		cfg.Rates = fault.Plan{ReadErrorRate: 0.01, ProgramFailRate: 0.003, EraseFailRate: 0.003}
		if _, err := crashtest.Run(cfg); err != nil {
			t.Errorf("faulty sweep seed %d: %v", seed, err)
		}
	}
}

// TestCrashTrialMemoryModeEquivalence cuts the power at the same flash-op
// boundary with the raw and the flyweight payload store: every observable
// trial outcome — ops applied before the cut, fault counters, recovery
// report — must be bit-identical, proving the compact representation holds
// exactly the bytes recovery reads back after a crash.
func TestCrashTrialMemoryModeEquivalence(t *testing.T) {
	raw := sweepConfig(anykey.DesignAnyKeyPlus)
	raw.Opts.Memory = anykey.MemoryRaw
	fly := sweepConfig(anykey.DesignAnyKeyPlus)
	fly.Opts.Memory = anykey.MemoryFlyweight
	for _, cut := range []int64{300, 700, 1100} {
		a, err := crashtest.RunTrial(raw, cut)
		if err != nil {
			t.Fatalf("raw trial cut@%d: %v", cut, err)
		}
		b, err := crashtest.RunTrial(fly, cut)
		if err != nil {
			t.Fatalf("flyweight trial cut@%d: %v", cut, err)
		}
		if a != b {
			t.Fatalf("cut@%d diverged across memory modes:\nraw:       %+v\nflyweight: %+v", cut, a, b)
		}
	}
}

// TestCrashSweepFlyweightFullScaleGeometry is the fullscale cell of the
// matrix: a geometry past the MemoryAuto threshold (so the flyweight store
// engages by default, as it does at 64 GB scale) swept with power cuts and
// grown-bad retirement layered on.
func TestCrashSweepFlyweightFullScaleGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale geometry cell is the slow cell")
	}
	cfg := sweepConfig(anykey.DesignAnyKeyPlus)
	cfg.Opts.CapacityMB = 2048 // ≥ 1 GiB: MemoryAuto resolves to flyweight
	cfg.Opts.Channels = 4
	cfg.Opts.ChipsPerChannel = 4
	cfg.Rates = fault.Plan{ProgramFailRate: 0.002, EraseFailRate: 0.002}
	res, err := crashtest.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, tr := range res.Trials {
		if tr.CutFired {
			fired++
			if !tr.Recovery.Recovered {
				t.Errorf("trial cut@%d: recovery did not run", tr.CutAtOp)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no trial fired its cut")
	}
}

// TestTrialDeterministic runs the identical trial twice and requires
// bit-for-bit identical outcomes — fault counters, recovery report, cut
// position — which is the property that makes crash bugs replayable.
func TestTrialDeterministic(t *testing.T) {
	cfg := sweepConfig(anykey.DesignAnyKey)
	cfg.Rates = fault.Plan{ReadErrorRate: 0.02}
	a, err := crashtest.RunTrial(cfg, 700)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crashtest.RunTrial(cfg, 700)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of the same trial diverged:\n%+v\n%+v", a, b)
	}
}
