package harness

import (
	"hash/fnv"
	"testing"

	"anykey"
)

// goldenOpts is the exact configuration the golden hashes below were pinned
// under. Quick mode fixes the op count, capacity and seed, so the reports
// are fully deterministic.
var goldenOpts = ExpOptions{Quick: true, MaxOps: 3000, CapacityMB: 32}

// golden report fingerprints, pinned before the tracing subsystem landed.
// They assert the end-to-end promise of the instrumentation: adding trace
// hooks to every layer changed no simulated timestamp, so the reports are
// byte-identical to the pre-tracing tree.
var goldenReports = []struct {
	id   string
	hash uint64
	size int
}{
	{"fig2", 0x4912efed7d306643, 909},
	{"table3", 0x1c54f7014c3578aa, 866},
}

// pinnedReports are the fingerprints of the quick open-loop, cluster and
// transaction reports per seed, recorded from serial runs. A serial-vs-
// parallel comparison alone passes when a change moves both the same way;
// these do not.
var pinnedReports = []struct {
	id   string
	seed int64
	hash uint64
	size int
}{
	{"cluster", 1, 0xd26e8f4b30a19e69, 1733},
	{"cluster", 7, 0xda7b509dfae58a32, 1727},
	{"storm", 1, 0x32063bf92703313b, 2805},
	{"storm", 7, 0x5c7ff70772e85acf, 2805},
	{"txn", 1, 0x09584f6ce9606471, 3135},
	{"txn", 7, 0x2d0718acd7426c3e, 3135},
	{"fleet", 1, 0xe5c586f6235c01fe, 1873},
	{"fleet", 7, 0xc0ad8c476d0afe87, 1873},
}

// checkPinnedReport regenerates the quick report id under seed on parallel
// workers (0 = serial), compares it with its pinned fingerprint and returns
// the text.
func checkPinnedReport(t *testing.T, id string, seed int64, parallel int) string {
	t.Helper()
	rep, err := RunExperiment(id, ExpOptions{Quick: true, Seed: seed, Parallel: parallel})
	if err != nil {
		t.Fatalf("%s seed %d: %v", id, seed, err)
	}
	s := rep.String()
	for _, p := range pinnedReports {
		if p.id == id && p.seed == seed {
			if len(s) != p.size || fnv64a(s) != p.hash {
				t.Errorf("%s seed %d parallel %d: report fingerprint changed: len=%d hash=%#x, want len=%d hash=%#x\n%s",
					id, seed, parallel, len(s), fnv64a(s), p.size, p.hash, s)
			}
			return s
		}
	}
	t.Fatalf("%s seed %d: no pinned fingerprint", id, seed)
	return ""
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestGoldenReports regenerates the pinned experiments and compares report
// fingerprints. A failure here means a change altered simulated timing or
// report formatting — either rebaseline deliberately or find the leak.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden reports take ~10s")
	}
	for _, g := range goldenReports {
		rep, err := RunExperiment(g.id, goldenOpts)
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		s := rep.String()
		if len(s) != g.size || fnv64a(s) != g.hash {
			t.Errorf("%s: report fingerprint changed: len=%d hash=%#x, want len=%d hash=%#x\n%s",
				g.id, len(s), fnv64a(s), g.size, g.hash, s)
		}
	}
}

// TestTracingDoesNotPerturbReports runs the same experiment with tracing on
// and compares against the golden fingerprint: the tracer must only observe
// the schedule, never change it.
func TestTracingDoesNotPerturbReports(t *testing.T) {
	if testing.Short() {
		t.Skip("traced golden report takes ~5s")
	}
	opts := goldenOpts
	opts.Trace = &anykey.TraceOptions{}
	rep, err := RunExperiment("fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if len(s) != goldenReports[0].size || fnv64a(s) != goldenReports[0].hash {
		t.Errorf("traced fig2 diverged from untraced golden: len=%d hash=%#x, want len=%d hash=%#x\n%s",
			len(s), fnv64a(s), goldenReports[0].size, goldenReports[0].hash, s)
	}
}
