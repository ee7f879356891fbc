package main

import (
	"strings"
	"testing"

	"anykey"
)

// Drive the REPL with a script and check its transcript.
func TestREPLScript(t *testing.T) {
	dev, err := anykey.Open(anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	script := strings.Join([]string{
		"help",
		"put alpha one",
		"get alpha",
		"get missing",
		"put beta two",
		"scan a 5",
		"del alpha",
		"get alpha",
		"fill 100 64",
		"stats",
		"meta",
		"storm 150000 3",
		"storm bad-args",
		"bogus-cmd",
		"put tooFewArgs",
		"fill 1 -1",
		"fill x 8",
		"scan a x",
		"scan a 99999999999999999",
		"quit",
	}, "\n")
	var out strings.Builder
	repl(dev, strings.NewReader(script), &out)
	got := out.String()
	// Bad counts print the usage line; a huge scan count is only a bound.
	for want, n := range map[string]int{"usage: fill": 2, "usage: scan": 1, `"beta" = "two"`: 2} {
		if c := strings.Count(got, want); c != n {
			t.Fatalf("transcript has %q %d times, want %d:\n%s", want, c, n, got)
		}
	}
	for _, want := range []string{
		`"one"`,            // get alpha
		"not found",        // get missing / deleted alpha
		`"beta" = "two"`,   // scan output
		"live keys:",       // stats
		"level lists",      // meta
		`unknown command`,  // bogus
		"usage: put",       // arg validation
		"device clock now", // fill
		"gets offered at",  // storm
		"usage: storm",     // storm arg validation
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("transcript missing %q:\n%s", want, got)
		}
	}
}

// Fault flags and the power cut are single-device tools: -shards rejects
// them instead of dropping the plan.
func TestCheckModes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		set         []string
		shards, rep int
		ok          bool
	}{
		{"device with faults", []string{"cut-at-op", "fault-read-err"}, 0, 0, true},
		{"cluster", []string{"router", "shards"}, 4, 0, true},
		{"replicated cluster", []string{"replication", "shards"}, 4, 2, true},
		{"cluster with fault rate", []string{"fault-read-err", "shards"}, 4, 0, false},
		{"cluster with fault seed", []string{"fault-seed", "shards"}, 4, 0, false},
		{"cluster with power cut", []string{"cut-at-op", "shards"}, 4, 0, false},
		{"replication without shards", []string{"replication"}, 0, 2, false},
	} {
		err := checkModes(tc.set, tc.shards, tc.rep)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkModes = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
