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
