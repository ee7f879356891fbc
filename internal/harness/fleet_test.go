package harness

import (
	"fmt"
	"testing"

	"anykey"
	"anykey/internal/sim"
	"anykey/internal/workload"
)

// smallFleetCfg is a fast fleet scenario: four small members, a thin key
// population (FillFrac 0.02 keeps warm-up to a few thousand keys), a 4 ms
// storm at 50 K/s with a heavy write mix, kill member 1 at 40% and rebuild
// from 55%.
func smallFleetCfg(factor, quorum int) FleetRunConfig {
	cfg := FleetRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:      4,
			QueueDepth:  16,
			Replication: anykey.ReplicationOptions{Factor: factor, WriteQuorum: quorum},
			Device: anykey.Options{
				Design:          anykey.DesignAnyKeyPlus,
				CapacityMB:      16,
				Channels:        4,
				ChipsPerChannel: 4,
				DRAMBytes:       16 << 20 / 100,
				Seed:            7,
			},
		},
		BaseConfig: BaseConfig{
			Workload: mustSpec("ZippyDB").WithArrival(
				workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 50e3}),
			Seed:       7,
			FillFrac:   0.02,
			WriteRatio: 0.5,
		},
	}
	cfg.Horizon = 4 * sim.Millisecond
	cfg.KillAtFrac, cfg.KillShard, cfg.KillCause = 0.4, 1, anykey.KillPowerCut
	cfg.RebuildAtFrac = 0.55
	return cfg
}

// The durability contract: at R=2/W=2 killing one of four devices mid-storm
// loses zero acknowledged writes (the oracle reads back every acked key),
// while the identical scenario at R=1 provably loses data.
func TestFleetKillDurability(t *testing.T) {
	res, err := RunFleet(smallFleetCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedIDs == 0 {
		t.Fatal("no acknowledged writes — scenario too short to mean anything")
	}
	if res.LostAcked != 0 {
		t.Fatalf("R=2/W=2 lost %d acknowledged writes (of %d acked, %d tainted)",
			res.LostAcked, res.AckedIDs, res.TaintedIDs)
	}
	if res.CleanOK == 0 {
		t.Fatal("oracle verified no clean keys")
	}
	if res.Repl.Rebuilds != 1 || res.RebuildKeys == 0 {
		t.Fatalf("rebuild did not run: rebuilds=%d keys=%d", res.Repl.Rebuilds, res.RebuildKeys)
	}
	if res.Repl.DeadMembers != 0 {
		t.Fatalf("member still dead after rebuild: %+v", res.Repl)
	}
	if res.Repl.ReadFallbacks == 0 {
		t.Error("no read served by a fallback replica during the outage")
	}

	lone, err := RunFleet(smallFleetCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lone.LostAcked == 0 {
		t.Fatalf("R=1 lost no acknowledged writes across a device kill (acked=%d) — oracle is blind",
			lone.AckedIDs)
	}
}

// Live reshard under load: adding a fifth member mid-storm migrates a
// bounded fraction, every fresh read still verifies, and no acked write is
// lost.
func TestFleetAddShardUnderLoad(t *testing.T) {
	cfg := smallFleetCfg(2, 2)
	cfg.KillAtFrac, cfg.RebuildAtFrac = 0, 0 // reshard only
	cfg.AddShardAtFrac = 0.3
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repl.MigratedKeys == 0 {
		t.Fatal("AddShard migrated no keys")
	}
	if frac := float64(res.Repl.MigratedKeys) / float64(res.Population); frac > 0.8 {
		t.Errorf("migration moved %.0f%% of the population — not a bounded reshard", frac*100)
	}
	if res.Repl.Epoch != 1 {
		t.Errorf("migration epoch = %d, want 1 (committed)", res.Repl.Epoch)
	}
	if res.Verified == 0 {
		t.Error("no fresh reads verified during the reshard")
	}
	if res.LostAcked != 0 {
		t.Errorf("reshard lost %d acknowledged writes", res.LostAcked)
	}
	if res.MigrateDur <= 0 {
		t.Errorf("migration duration %v", res.MigrateDur)
	}
}

// The golden-checksum gate for the fleet path: a mini-experiment covering
// kill+rebuild at R∈{1,2} and a live reshard must render the byte-identical
// report serially and through the plan/execute/replay parallel runner —
// including the migration end state the oracle reads back.
func TestFleetSerialParallelIdentical(t *testing.T) {
	body := func(o ExpOptions) (*Report, error) {
		rep := &Report{ID: "fleet-mini", Title: "fleet determinism gate"}
		tb := Table{Name: "cells", Header: []string{"system", "acked", "lost", "clean",
			"migrated", "rebuilt", "fallbacks", "p99 read", "ops"}}
		cfgs := []FleetRunConfig{smallFleetCfg(1, 1), smallFleetCfg(2, 2)}
		reshard := smallFleetCfg(2, 2)
		reshard.KillAtFrac, reshard.RebuildAtFrac = 0, 0
		reshard.AddShardAtFrac = 0.3
		cfgs = append(cfgs, reshard)
		for _, cfg := range cfgs {
			res, err := o.fleetRun(cfg)
			if err != nil {
				return nil, err
			}
			tb.Rows = append(tb.Rows, []string{res.System, fmt.Sprint(res.AckedIDs),
				fmt.Sprint(res.LostAcked), fmt.Sprint(res.CleanOK),
				fmt.Sprint(res.Repl.MigratedKeys), fmt.Sprint(res.RebuildKeys),
				fmt.Sprint(res.Repl.ReadFallbacks), fdur(res.ReadLat.Percentile(99)),
				fmt.Sprint(res.Ops)})
		}
		rep.Tables = append(rep.Tables, tb)
		return rep, nil
	}
	e := Experiment{ID: "fleet-mini", Paper: "determinism", Run: body}

	serial, err := e.Run(ExpOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runParallel(e, ExpOptions{Seed: 7, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("serial and parallel fleet reports diverge:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
}

// TestFleetReportGoldenDeterminism holds the quick fleet report to its pinned
// per-seed fingerprints: seed 1 serially, seed 7 through the parallel runner.
func TestFleetReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fleet suite twice")
	}
	checkPinnedReport(t, "fleet", 1, 0)
	checkPinnedReport(t, "fleet", 7, 4)
}

// TestReplicatedOpenLoopOneDriver holds the two entry points to the one
// open-loop driver: a scenario-free RunFleet and an open-loop RunCluster over
// the same cluster and methodology are the same run, at every replication
// setting. A driver that offers every replica one member's arrival instant,
// or subtracts one member's epoch from another's completion, agrees at R=1
// and diverges on the write histogram from R=2 up. W=0 takes the default
// quorum (W=R), which the result must report.
func TestReplicatedOpenLoopOneDriver(t *testing.T) {
	for _, rw := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {2, 0}} {
		t.Run(fmt.Sprintf("R=%d/W=%d", rw[0], rw[1]), func(t *testing.T) {
			fc := smallFleetCfg(rw[0], rw[1])
			fc.KillAtFrac, fc.RebuildAtFrac = 0, 0
			f, err := RunFleet(fc)
			if err != nil {
				t.Fatal(err)
			}
			c, err := RunCluster(ClusterRunConfig{Cluster: fc.Cluster, BaseConfig: fc.BaseConfig})
			if err != nil {
				t.Fatal(err)
			}
			wantW := rw[1]
			if wantW == 0 {
				wantW = rw[0]
			}
			if f.R != rw[0] || f.W != wantW {
				t.Errorf("result reports R=%d W=%d, want R=%d W=%d", f.R, f.W, rw[0], wantW)
			}
			fo, co := f.Open, c.Open
			if fo.Attempts == 0 || fo.Attempts != co.Attempts || fo.Completed != co.Completed ||
				fo.Timeouts != co.Timeouts || fo.Retries != co.Retries || fo.GoodOps != co.GoodOps {
				t.Errorf("scorecards differ:\n fleet   %+v\n cluster %+v", *fo, *co)
			}
			if f.ReadLat != c.ReadLat {
				t.Errorf("read histograms differ: fleet %s, cluster %s", f.ReadLat.Summary(), c.ReadLat.Summary())
			}
			if f.WriteLat != c.WriteLat {
				t.Errorf("write histograms differ: fleet %s, cluster %s", f.WriteLat.Summary(), c.WriteLat.Summary())
			}
			if f.SimSeconds != c.SimSeconds || f.Ops != c.Ops || f.Verified != c.Verified {
				t.Errorf("fleet sim=%vs ops=%d verified=%d, cluster sim=%vs ops=%d verified=%d",
					f.SimSeconds, f.Ops, f.Verified, c.SimSeconds, c.Ops, c.Verified)
			}
		})
	}
}

// A replicated cluster with a dead member at R=2/W=2 answers ErrQuorumNotMet
// for every write the dead member co-owns. Through the cluster target those
// are failed attempts — retried, then dropped — not the end of the run.
func TestReplicatedOpenLoopDeadMember(t *testing.T) {
	fc := smallFleetCfg(2, 2)
	cfg := ClusterRunConfig{Cluster: fc.Cluster, BaseConfig: fc.BaseConfig}
	w, err := warmUpCluster(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.cl.Close()
	if err := w.cl.KillShard(1, anykey.KillPowerCut); err != nil {
		t.Fatal(err)
	}
	hists := testHists()
	loop := openLoop{cfg: &cfg.BaseConfig, gen: w.gen, tgt: w.target(nil), hists: hists}
	st, err := loop.run()
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if st.WriteFailures == 0 || st.Retries == 0 || st.Dropped == 0 {
		t.Errorf("quorum misses not retried and dropped: %+v", *st)
	}
	if st.ReadFailures != 0 {
		t.Errorf("%d reads failed with a surviving replica", st.ReadFailures)
	}
	if st.Attempts != st.Offered+st.Retries || st.Completed+st.Dropped != st.Offered {
		t.Errorf("scorecard does not add up: %+v", *st)
	}
	if hists.write.Count() == 0 || loop.verified == 0 {
		t.Errorf("no write completed (%d) or no read verified (%d) on the surviving owners",
			hists.write.Count(), loop.verified)
	}
}
