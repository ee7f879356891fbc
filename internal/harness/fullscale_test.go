package harness

import (
	"strings"
	"testing"
)

// TestFullscaleReportGoldenDeterminism pins the fullscale report to the
// repo-wide contract: byte-identical across runs and at every -parallel.
// fullscale is registry-Serial (its cells share the process-global payload
// intern registry, whose eviction pattern concurrent cells would perturb),
// so the -parallel run must take the serial path and print the same bytes.
// That second run on the same path also checks that two runs in one process
// agree.
func TestFullscaleReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fullscale experiment twice")
	}
	first, err := RunExperiment("fullscale", ExpOptions{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExperiment("fullscale", ExpOptions{Quick: true, Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.String(), parallel.String()
	if a != b {
		t.Fatalf("serial and -parallel reports differ\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "equivalence: raw and flyweight ran identical schedules") {
		t.Fatalf("equivalence note missing — raw and flyweight cells diverged:\n%s", a)
	}
}
