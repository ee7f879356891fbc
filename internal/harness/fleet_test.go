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
func smallFleetCfg(factor, quorum int) ClusterRunConfig {
	cfg := ClusterRunConfig{
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
	res, err := RunCluster(smallFleetCfg(2, 2))
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
	if res.ReplStats.Rebuilds != 1 || res.RebuildKeys == 0 {
		t.Fatalf("rebuild did not run: rebuilds=%d keys=%d", res.ReplStats.Rebuilds, res.RebuildKeys)
	}
	if res.ReplStats.DeadMembers != 0 {
		t.Fatalf("member still dead after rebuild: %+v", res.ReplStats)
	}
	if res.ReplStats.ReadFallbacks == 0 {
		t.Error("no read served by a fallback replica during the outage")
	}

	lone, err := RunCluster(smallFleetCfg(1, 1))
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
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplStats.MigratedKeys == 0 {
		t.Fatal("AddShard migrated no keys")
	}
	if frac := float64(res.ReplStats.MigratedKeys) / float64(res.Population); frac > 0.8 {
		t.Errorf("migration moved %.0f%% of the population — not a bounded reshard", frac*100)
	}
	if res.ReplStats.Epoch != 1 {
		t.Errorf("migration epoch = %d, want 1 (committed)", res.ReplStats.Epoch)
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
		cfgs := []ClusterRunConfig{smallFleetCfg(1, 1), smallFleetCfg(2, 2)}
		reshard := smallFleetCfg(2, 2)
		reshard.KillAtFrac, reshard.RebuildAtFrac = 0, 0
		reshard.AddShardAtFrac = 0.3
		cfgs = append(cfgs, reshard)
		for _, cfg := range cfgs {
			res, err := o.clusterRun(cfg)
			if err != nil {
				return nil, err
			}
			tb.Rows = append(tb.Rows, []string{res.System, fmt.Sprint(res.AckedIDs),
				fmt.Sprint(res.LostAcked), fmt.Sprint(res.CleanOK),
				fmt.Sprint(res.ReplStats.MigratedKeys), fmt.Sprint(res.RebuildKeys),
				fmt.Sprint(res.ReplStats.ReadFallbacks), fdur(res.ReadLat.Percentile(99)),
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

// The scenario is a replicated open-loop feature: ClusterRunConfig rejects
// one on a closed-loop or unreplicated config, and accepts a scenario-free
// config at any replication factor, open or closed.
func TestFleetScenarioValidation(t *testing.T) {
	type edit = func(*ClusterRunConfig)
	closed := func(c *ClusterRunConfig) { c.Workload.Arrival = workload.ArrivalSpec{} }
	kill := func(c *ClusterRunConfig) { c.KillAtFrac, c.KillShard = 0.4, 1 }
	rebuild := func(c *ClusterRunConfig) { c.RebuildAtFrac = 0.5 }
	add := func(c *ClusterRunConfig) { c.AddShardAtFrac = 0.3 }
	for _, tc := range []struct {
		name   string
		factor int
		edits  []edit
		ok     bool
	}{
		{"open R=2 kill", 2, []edit{kill}, true},
		{"open R=1 add", 1, []edit{add}, true},
		{"open R=0 kill", 0, []edit{kill}, false},
		{"open R=0 rebuild", 0, []edit{rebuild}, false},
		{"open R=0 add", 0, []edit{add}, false},
		{"closed R=2 kill", 2, []edit{closed, kill}, false},
		{"closed R=2 add", 2, []edit{closed, add}, false},
		{"open R=0", 0, nil, true},
		{"open R=3", 3, nil, true},
		{"closed R=0", 0, []edit{closed}, true},
		{"closed R=2", 2, []edit{closed}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallFleetCfg(tc.factor, 0)
			cfg.KillAtFrac, cfg.RebuildAtFrac = 0, 0
			for _, e := range tc.edits {
				e(&cfg)
			}
			run := cfg
			_, err := cfg.Population()
			if (err == nil) != tc.ok {
				t.Fatalf("Population() error = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				if _, err := RunCluster(run); err == nil {
					t.Fatal("RunCluster accepted a config Population() rejects")
				}
			}
		})
	}
}

// Every open-loop cluster run reads its acknowledged writes back after the
// measurement, replicated or not, and with W=0 the result reports the
// default quorum W=R.
func TestFleetOracleWithoutScenario(t *testing.T) {
	for _, r := range []int{0, 2} {
		t.Run(fmt.Sprintf("R=%d/W=0", r), func(t *testing.T) {
			cfg := smallFleetCfg(r, 0)
			cfg.KillAtFrac, cfg.RebuildAtFrac = 0, 0
			res, err := RunCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.AckedIDs == 0 || res.CleanOK == 0 || res.LostAcked != 0 {
				t.Errorf("oracle: acked=%d clean=%d lost=%d, want acked>0 clean>0 lost=0",
					res.AckedIDs, res.CleanOK, res.LostAcked)
			}
			if got := res.ReplStats; got.Factor != r || got.WriteQuorum != r {
				t.Errorf("result reports R=%d W=%d, want R=%d W=%d", got.Factor, got.WriteQuorum, r, r)
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
