package main

import "testing"

// A flag the selected run mode would ignore is rejected, not dropped.
func TestCheckModes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     []string
		txnMode string
		wl      string
		shards  int
		ok      bool
	}{
		{"exp with faults", []string{"exp", "fault-read-err", "fault-seed"}, "", "", 0, true},
		{"workload with fault rate", []string{"fault-read-err", "maxops", "quick", "workload"}, "", "ZippyDB", 0, false},
		{"workload with fault seed", []string{"fault-seed", "workload"}, "", "ZippyDB", 0, false},
		{"cluster workload with faults", []string{"fault-erase-fail", "shards", "workload"}, "", "ZippyDB", 4, false},
		{"txn with faults", []string{"fault-program-fail", "txn-mode"}, "occ", "", 0, false},
		{"plain workload", []string{"capacity", "workload"}, "", "ZippyDB", 0, true},
		{"cluster workload", []string{"capacity", "replication", "shards", "workload"}, "", "ZippyDB", 4, true},
		{"replication without shards", []string{"replication", "workload"}, "", "ZippyDB", 0, false},
		{"txn knobs without mode", []string{"exp", "txn-theta"}, "", "", 0, false},
		{"txn knobs with mode", []string{"txn-mode", "txn-theta"}, "split", "", 0, true},
		{"open-loop workload", []string{"arrival-rate", "arrival-shape", "workload"}, "", "ZippyDB", 0, true},
		{"arrival rate without shape", []string{"arrival-rate", "workload"}, "", "ZippyDB", 0, false},
		{"arrival without workload", []string{"arrival-rate", "arrival-shape", "exp"}, "", "", 0, false},
	} {
		err := checkModes(tc.set, tc.txnMode, tc.wl, tc.shards)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkModes = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
