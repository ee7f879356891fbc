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
// contract: the report is byte-identical whether its cells run sequentially
// or on a parallel worker pool, and the property holds across seeds. The
// experiment's own router-invariance table covers RouteConsistent vs
// RouteModulo inside each run.
func TestTxnReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick txn sweep four times")
	}
	for _, seed := range []int64{1, 7} {
		ss := checkPinnedReport(t, "txn", seed, 0)
		ps := checkPinnedReport(t, "txn", seed, 4)
		if fnv64a(ss) != fnv64a(ps) || ss != ps {
			t.Fatalf("seed %d: sequential and parallel reports differ\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seed, ss, ps)
		}
		if !strings.Contains(ss, "goodput knee") || !strings.Contains(ss, "router invariance") {
			t.Fatalf("seed %d: report missing expected tables:\n%s", seed, ss)
		}
	}
}
