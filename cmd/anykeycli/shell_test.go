package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden shell transcripts under testdata/")

// TestMain lets a test run the real command: with ANYKEYCLI_MAIN set, the
// test binary is anykeycli, its arguments taken from that variable.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ANYKEYCLI_MAIN"); ok {
		os.Args = append([]string{"anykeycli"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs anykeycli with args, feeding it script on stdin, in a fresh
// working directory, and returns what it printed.
func runCLI(t *testing.T, args string, script []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "ANYKEYCLI_MAIN="+args)
	cmd.Dir = t.TempDir()
	cmd.Stdin = strings.NewReader(strings.Join(script, "\n") + "\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("anykeycli %s: %v\n%s", args, err, out)
	}
	return string(out)
}

// golden compares a transcript with testdata/<name>.golden, or rewrites the
// file under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs from %s at line %d:\n got: %q\nwant: %q\n(go test ./cmd/anykeycli -run %s -update rewrites it)",
					path, i+1, g, w, t.Name())
			}
		}
	}
}

// deviceScript exercises every device-shell command and every usage error.
var deviceScript = []string{
	"put alpha one",
	"get alpha",
	"get missing",
	"put beta two",
	"scan a 5",
	"del alpha",
	"get alpha",
	"",
	"fill 100 64",
	"sync",
	"stats",
	"meta",
	"put a 1",
	"storm 150000 3",
	"put b 2",
	"get b",
	"storm 1000 1 5",
	"trace on",
	"trace on",
	"put traced 1",
	"get traced",
	"trace blame",
	"trace blame 50",
	"trace blame 0",
	"trace blame x",
	"trace save",
	"trace csv a b",
	"trace bogus",
	"trace save t.json",
	"trace csv t.csv",
	"trace off",
	"trace off",
	"trace blame",
	"trace save t.json",
	"cycle",
	"get beta",
	"put tooFewArgs",
	"put a b c",
	"get",
	"get a b",
	"del",
	"del a b",
	"scan a",
	"scan a 1 2",
	"scan a x",
	"scan a -1",
	"scan fill-000000098 3",
	"fill 1",
	"fill 1 -1",
	"fill x 8",
	"trace",
	"storm",
	"storm 1",
	"storm 1 2 3 4",
	"storm bad-args 1",
	"storm 100 0",
	"storm 100 1 -5",
	"bogus-cmd",
	"quit",
	"put after quit",
}

func TestDeviceShellScript(t *testing.T) {
	golden(t, "device_shell", runCLI(t, "-design anykey+ -capacity 64", deviceScript))
}

// clusterScript exercises every cluster-shell command and every usage
// error on a replicated cluster, so the fleet commands run too.
var clusterScript = []string{
	"put alpha one",
	"get alpha",
	"get missing",
	"del alpha",
	"get alpha",
	"mput a=1 b=2 c=3 d=4",
	"mget a b c d missing",
	"shard a",
	"incr ctr",
	"incr ctr 5",
	"incr ctr -2",
	"append log x",
	"append log y",
	"get log",
	"cas k - first",
	"cas k first second",
	"cas k first never",
	"get k",
	"txn t1=x t2=y del:a",
	"get t1",
	"get a",
	"stats",
	"meta",
	"sync",
	"",
	"rebalance",
	"rebalance-status",
	"addshard",
	"rebalance-status",
	"rebalance 2",
	"rebalance 8",
	"rebalance",
	"rebalance-status",
	"kill 1",
	"get b",
	"rebalance-status",
	"rebuild 1",
	"kill 2 grownbad",
	"rebuild 2",
	"kill 0 powercut",
	"rebuild 0",
	"rmshard 3",
	"rebalance",
	"rebalance-status",
	"mget a b c d",
	"stats",
	"kill 9",
	"rebuild 1",
	"rmshard 9",
	"put onlykey",
	"put a b c",
	"get",
	"get a b",
	"del",
	"del a b",
	"mput",
	"mput novalue",
	"mget",
	"shard",
	"shard a b",
	"incr",
	"incr a 1 2",
	"incr a x",
	"append a",
	"append a b c",
	"cas a b",
	"cas a b c d",
	"txn",
	"txn bad",
	"txn =v",
	"rmshard",
	"rmshard x",
	"rmshard 1 2",
	"rebalance x",
	"rebalance 0",
	"kill",
	"kill x",
	"kill 1 2 3",
	"kill 1 melt",
	"rebuild",
	"rebuild x",
	"rebuild 1 2",
	"scan a 5",
	"bogus-cmd",
	"exit",
	"put after exit",
}

func TestClusterShellScript(t *testing.T) {
	golden(t, "cluster_shell", runCLI(t, "-shards 3 -replication 2", clusterScript))
}

// help names every command of its mode.
func TestShellHelpNamesEveryCommand(t *testing.T) {
	for _, tc := range []struct {
		args  string
		names []string
	}{
		{"", []string{"put", "get", "del", "scan", "fill", "sync", "cycle", "stats", "meta", "trace", "storm", "quit"}},
		{"-shards 3 -replication 2", []string{"put", "get", "del", "mput", "mget", "shard", "incr", "append", "cas", "txn",
			"stats", "meta", "sync", "addshard", "rmshard", "rebalance", "rebalance-status", "kill", "rebuild", "quit"}},
	} {
		out := runCLI(t, tc.args, []string{"help", "quit"})
		words := map[string]bool{}
		for _, w := range strings.FieldsFunc(out, func(r rune) bool { return r == ' ' || r == '\n' || r == '|' || r == ':' }) {
			words[w] = true
		}
		for _, name := range tc.names {
			if !words[name] {
				t.Errorf("anykeycli %s: help does not name %q:\n%s", tc.args, name, out)
			}
		}
	}
}
