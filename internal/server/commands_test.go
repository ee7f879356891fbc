package server

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"anykey"
	"anykey/internal/trace"
)

// arityCases sends every command and FLEET subcommand with one argument too
// few and one too many, where such a count exists; name is how the reply
// spells the command.
var arityCases = []struct {
	name string
	args []string
}{
	{"ping", []string{"PING", "a", "b"}},
	{"echo", []string{"ECHO"}},
	{"echo", []string{"ECHO", "a", "b"}},
	{"set", []string{"SET", "k"}},
	{"set", []string{"SET", "k", "v", "x"}},
	{"get", []string{"GET"}},
	{"get", []string{"get", "k", "x"}},
	{"del", []string{"DEL"}},
	{"mget", []string{"MGET"}},
	{"mset", []string{"MSET", "k"}},
	{"mset", []string{"MSET", "k", "v", "x"}},
	{"scan", []string{"SCAN", "a"}},
	{"scan", []string{"SCAN", "a", "1", "x"}},
	{"incr", []string{"INCR"}},
	{"incr", []string{"INCR", "k", "1"}},
	{"incrby", []string{"INCRBY", "k"}},
	{"incrby", []string{"INCRBY", "k", "1", "x"}},
	{"append", []string{"APPEND", "k"}},
	{"append", []string{"APPEND", "k", "v", "x"}},
	{"cas", []string{"CAS", "k", "old"}},
	{"cas", []string{"CAS", "k", "old", "new", "x"}},
	{"fleet", []string{"FLEET"}},
	{"fleet status", []string{"FLEET", "STATUS", "x"}},
	{"fleet kill", []string{"FLEET", "KILL"}},
	{"fleet kill", []string{"FLEET", "kill", "1", "powercut", "x"}},
	{"fleet rebuild", []string{"FLEET", "REBUILD"}},
	{"fleet rebuild", []string{"FLEET", "REBUILD", "1", "x"}},
	{"fleet rmshard", []string{"FLEET", "RMSHARD"}},
	{"fleet rmshard", []string{"FLEET", "RMSHARD", "1", "x"}},
}

// TestCommandArity: a command with the wrong number of arguments answers one
// exact error line and runs nothing. Inside MULTI, SET and DEL answer the
// same line and every other command is refused as not queueable; either way
// the block is poisoned and EXEC aborts it.
func TestCommandArity(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2}
	_, addr := startServer(t, cfg)
	c := dialT(t, addr)
	expect := func(args []string, want string) {
		t.Helper()
		rp, err := c.Do(args...)
		if err != nil || rp.Kind != '-' || rp.Str != want {
			t.Errorf("%s: %s, %v; want -%s", strings.Join(args, " "), rp.Text(), err, want)
		}
	}
	for _, tc := range arityCases {
		expect(tc.args, "ERR wrong number of arguments for '"+tc.name+"' command")
	}
	for _, tc := range arityCases {
		if rp, err := c.Do("MULTI"); err != nil || rp.Str != "OK" {
			t.Fatalf("MULTI: %s, %v", rp.Text(), err)
		}
		want := "ERR wrong number of arguments for '" + tc.name + "' command"
		if tc.name != "set" && tc.name != "del" {
			want = "ERR command '" + tc.args[0] + "' not allowed in MULTI (only SET and DEL queue)"
		}
		expect(tc.args, want)
		expect([]string{"EXEC"}, "EXECABORT Transaction discarded because of previous errors.")
	}
	// Nothing above ran: the keys are absent and every member is alive.
	for _, k := range []string{"k", "a"} {
		if rp, err := c.Do("GET", k); err != nil || !rp.Null {
			t.Errorf("GET %s after refused commands: %s, %v", k, rp.Text(), err)
		}
	}
	if rp, err := c.Do("FLEET", "STATUS"); err != nil || !strings.Contains(string(rp.Bulk), "member1:alive") {
		t.Errorf("FLEET STATUS after refused commands: %s, %v", rp.Text(), err)
	}
	if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Errorf("PING: %s, %v", rp.Text(), err)
	}
}

// TestMetricsBeforeTraffic: a scrape taken right after New, before any
// command, lists every per-shard series of every shard, at zero.
func TestMetricsBeforeTraffic(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for sh := 0; sh < testConfig().Cluster.Shards; sh++ {
		l := `{shard="` + strconv.Itoa(sh) + `"`
		series := []string{
			"anykeyserver_op_errors_total" + l + "}",
			"anykeyserver_shed_total" + l + "}",
			"anykeyserver_timeouts_total" + l + "}",
			"anykeyserver_inflight" + l + "}",
			"anykeyserver_latency_seconds_count" + l + "}",
			"anykeyserver_latency_seconds_sum" + l + "}",
			"anykeyserver_queue_wait_seconds_count" + l + "}",
			"anykeyserver_queue_wait_seconds_sum" + l + "}",
			"anykey_tail_blame_threshold_seconds" + l + "}",
		}
		for _, op := range opNames {
			series = append(series, "anykeyserver_ops_total"+l+`,op="`+op+`"}`)
		}
		for c := trace.Cause(0); c < trace.NumCauses; c++ {
			series = append(series, "anykey_tail_blame_seconds"+l+`,cause="`+c.String()+`"}`)
		}
		for _, name := range series {
			if v := metricValue(t, body, name); v != 0 {
				t.Errorf("%s = %v before any command, want 0", name, v)
			}
		}
	}
}
