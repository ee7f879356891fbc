package harness

import (
	"testing"

	"anykey"
	"anykey/internal/workload"
)

// smallRun is a fast end-to-end configuration: a 32 MiB device, capped ops.
func smallRun(design anykey.Design, wl string) RunConfig {
	spec, ok := workload.ByName(wl)
	if !ok {
		panic("unknown workload " + wl)
	}
	return RunConfig{
		Device:     anykey.Options{Design: design, CapacityMB: 32},
		BaseConfig: BaseConfig{Workload: spec, FillFrac: 0.35, MaxOps: 20000},
	}
}

func TestRunEndToEnd(t *testing.T) {
	for _, design := range []anykey.Design{anykey.DesignPinK, anykey.DesignAnyKey, anykey.DesignAnyKeyPlus} {
		t.Run(design.String(), func(t *testing.T) {
			res, err := Run(smallRun(design, "ZippyDB"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 20000 {
				t.Fatalf("Ops = %d", res.Ops)
			}
			if res.IOPS <= 0 || res.SimSeconds <= 0 {
				t.Fatalf("IOPS=%v sim=%vs", res.IOPS, res.SimSeconds)
			}
			if res.ReadLat.Count() == 0 || res.WriteLat.Count() == 0 {
				t.Fatal("latency histograms empty")
			}
			if res.Verified == 0 {
				t.Fatal("no reads verified")
			}
			if res.Total.TotalWrites() <= res.Exec.TotalWrites() {
				t.Fatal("warm-up writes missing from totals")
			}
			if res.ReadLat.Percentile(95) <= 0 {
				t.Fatal("p95 not measurable")
			}
		})
	}
}

func TestRunWithScans(t *testing.T) {
	cfg := smallRun(anykey.DesignAnyKeyPlus, "UDB")
	cfg.WriteRatio = 0.1
	cfg.ScanRatio = 0.2
	cfg.ScanLen = 50
	cfg.MaxOps = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanLat.Count() == 0 {
		t.Fatal("no scans recorded")
	}
}

func TestFillToFull(t *testing.T) {
	spec, _ := workload.ByName("ZippyDB")
	fr, err := FillToFull(anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 32}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Utilization <= 0.2 || fr.Utilization > 1.0 {
		t.Fatalf("utilization = %.3f", fr.Utilization)
	}
	if fr.Pairs == 0 {
		t.Fatal("no pairs inserted")
	}
}

// The engine's breakdown must cover exactly the execution phase: one
// sample per measured op, all queue waits zero (closed loop), and service
// equal to end-to-end latency.
func TestRunRecordsBreakdown(t *testing.T) {
	cfg := smallRun(anykey.DesignAnyKeyPlus, "KVSSD")
	cfg.MaxOps = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceLat.Count() != res.Ops || res.QueueWaitLat.Count() != res.Ops {
		t.Fatalf("breakdown covers %d/%d samples for %d ops",
			res.ServiceLat.Count(), res.QueueWaitLat.Count(), res.Ops)
	}
	if res.QueueWaitLat.Max() != 0 {
		t.Fatalf("closed-loop queue wait = %v; want 0", res.QueueWaitLat.Max())
	}
	if res.ServiceLat.Max() != res.ReadLat.Max() && res.ServiceLat.Max() != res.WriteLat.Max() {
		t.Fatalf("service max %v matches neither read max %v nor write max %v",
			res.ServiceLat.Max(), res.ReadLat.Max(), res.WriteLat.Max())
	}
}

// The repository benchmark (bench/) sizes its populations with
// RunConfig.Population and ClusterRunConfig.Population; these are the values
// it has been measured with, full-size and smoke.
func TestBenchPopulationsPinned(t *testing.T) {
	for _, g := range []struct {
		workload   string
		capacityMB int
		want       uint64
	}{{"ZippyDB", 128, 409922}, {"W-PinK", 256, 90208}, {"ZippyDB", 32, 102480}, {"W-PinK", 32, 11276}} {
		rc := RunConfig{Device: anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: g.capacityMB},
			BaseConfig: BaseConfig{Workload: mustSpec(g.workload)}}
		if got := rc.Population(); got != g.want {
			t.Errorf("%s on %d MB: population %d, want %d", g.workload, g.capacityMB, got, g.want)
		}
	}
	for capacityMB, want := range map[int]uint64{64: 409922, 32: 204961} {
		cc := ClusterRunConfig{Cluster: anykey.ClusterOptions{Shards: 4, Router: anykey.RouteConsistent, Workers: 2,
			Replication: anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2},
			Device:      anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: capacityMB}},
			BaseConfig: BaseConfig{Workload: mustSpec("ZippyDB")}}
		if got, err := cc.Population(); err != nil || got != want {
			t.Errorf("4x%d MB R=2: population %d, %v; want %d", capacityMB, got, err, want)
		}
	}
}
