package harness

import (
	"strings"
	"testing"
)

// TestRunTxnOracle runs one contended OCC cell and one split cell and checks
// the exactness oracle plus the basic shape of the result.
func TestRunTxnOracle(t *testing.T) {
	for _, mode := range []string{TxnModeOCC, TxnModeSplit} {
		res, err := RunTxn(TxnRunConfig{Mode: mode, Waves: 60, Clients: 4})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Verified == 0 {
			t.Fatalf("%s: exactness oracle never checked a counter", mode)
		}
		if res.Committed == 0 || res.Committed+res.Aborted != res.Txns {
			t.Fatalf("%s: inconsistent tallies %+v", mode, res)
		}
		if res.GoodTxnPerSec <= 0 {
			t.Fatalf("%s: no goodput: %+v", mode, res)
		}
		if mode == TxnModeSplit && res.Layer.SplitMerges == 0 {
			t.Fatalf("split mode never merged a phase: %+v", res.Layer)
		}
	}
}

// TestRunTxnAtomicModes checks the batch-shaped modes: atomic batches pay
// prepares, best-effort batches don't, and both verify visibility.
func TestRunTxnAtomicModes(t *testing.T) {
	atomic, err := RunTxn(TxnRunConfig{Mode: TxnModeAtomic, Waves: 20})
	if err != nil {
		t.Fatal(err)
	}
	best, err := RunTxn(TxnRunConfig{Mode: TxnModeBestEffort, Waves: 20})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.Verified == 0 || best.Verified == 0 {
		t.Fatalf("visibility oracle never checked a batch: atomic=%d best=%d", atomic.Verified, best.Verified)
	}
	if atomic.Layer.Prepares == 0 {
		t.Fatalf("atomic batches recorded no prepares: %+v", atomic.Layer)
	}
	if best.Layer.Prepares != 0 {
		t.Fatalf("best-effort batches should not prepare: %+v", best.Layer)
	}
}

// TestTxnReportGoldenDeterminism pins the txn experiment's determinism
// contract in the cluster-suite style: seed 1 serially and seed 7 on a
// parallel pool, each against its serially-recorded fingerprint. The
// experiment's own router-invariance table covers RouteConsistent vs
// RouteModulo inside each run.
func TestTxnReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick txn sweep twice")
	}
	for _, s := range []string{checkPinnedReport(t, "txn", 1, 0), checkPinnedReport(t, "txn", 7, 4)} {
		if !strings.Contains(s, "goodput knee") || !strings.Contains(s, "router invariance") {
			t.Fatalf("report missing expected tables:\n%s", s)
		}
	}
}
