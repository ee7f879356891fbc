package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anykey"
)

func testConfig() Config {
	return Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Cluster: anykey.ClusterOptions{
			Shards:     4,
			QueueDepth: 8,
			Device:     anykey.Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4},
		},
	}
}

// startServer runs a server in the background and tears it down with the
// test. It returns the server and its RESP address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, s.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerRoundTrip(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c := dialT(t, addr)

	if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Fatalf("PING: %+v, %v", rp, err)
	}
	if rp, err := c.Do("ECHO", "hello"); err != nil || string(rp.Bulk) != "hello" {
		t.Fatalf("ECHO: %+v, %v", rp, err)
	}
	if rp, err := c.Do("SET", "k1", "v1"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "k1"); err != nil || string(rp.Bulk) != "v1" {
		t.Fatalf("GET: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "absent"); err != nil || !rp.Null {
		t.Fatalf("GET miss: %+v, %v", rp, err)
	}
	if rp, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil || rp.Str != "OK" {
		t.Fatalf("MSET: %+v, %v", rp, err)
	}
	rp, err := c.Do("MGET", "a", "b", "missing", "c")
	if err != nil || rp.Kind != '*' || len(rp.Array) != 4 {
		t.Fatalf("MGET: %+v, %v", rp, err)
	}
	if string(rp.Array[0].Bulk) != "1" || string(rp.Array[1].Bulk) != "2" ||
		!rp.Array[2].Null || string(rp.Array[3].Bulk) != "3" {
		t.Fatalf("MGET values: %s", rp.Text())
	}
	if rp, err := c.Do("DEL", "a", "b"); err != nil || rp.Int != 2 {
		t.Fatalf("DEL: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "a"); err != nil || !rp.Null {
		t.Fatalf("GET after DEL: %+v, %v", rp, err)
	}
	if rp, err := c.Do("INFO"); err != nil || !strings.Contains(string(rp.Bulk), "shards:4") {
		t.Fatalf("INFO: %+v, %v", rp, err)
	}
	if rp, err := c.Do("NOSUCH"); err != nil || rp.Kind != '-' {
		t.Fatalf("unknown command: %+v, %v", rp, err)
	}
}

func TestServerScan(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c := dialT(t, addr)

	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("scan:%03d", i)
		if rp, err := c.Do("SET", k, "v"+strconv.Itoa(i)); err != nil || rp.Str != "OK" {
			t.Fatalf("SET %s: %+v, %v", k, rp, err)
		}
	}
	// Page through the keyspace 7 at a time; pages must be sorted, disjoint
	// and complete.
	var got []string
	cursor := "scan:"
	for page := 0; page < 10; page++ {
		rp, err := c.Do("SCAN", cursor, "7")
		if err != nil || rp.Kind != '*' || len(rp.Array) != 2 {
			t.Fatalf("SCAN: %+v, %v", rp, err)
		}
		flat := rp.Array[1].Array
		if len(flat)%2 != 0 {
			t.Fatalf("odd pair array: %d", len(flat))
		}
		for i := 0; i < len(flat); i += 2 {
			got = append(got, string(flat[i].Bulk))
		}
		next := string(rp.Array[0].Bulk)
		if next == "" {
			break
		}
		cursor = next
	}
	if len(got) != 20 {
		t.Fatalf("scan returned %d keys: %v", len(got), got)
	}
	for i, k := range got {
		if want := fmt.Sprintf("scan:%03d", i); k != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}
}

func TestServerPipelining(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c := dialT(t, addr)

	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Send("SET", "p"+strconv.Itoa(i), "v"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rp, err := c.Receive()
		if err != nil || rp.Str != "OK" {
			t.Fatalf("reply %d: %+v, %v", i, rp, err)
		}
	}
	for i := 0; i < n; i++ {
		c.Send("GET", "p"+strconv.Itoa(i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rp, err := c.Receive()
		if err != nil || string(rp.Bulk) != "v"+strconv.Itoa(i) {
			t.Fatalf("get %d: %+v, %v", i, rp, err)
		}
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr := startServer(t, testConfig())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("SET inline-key inline-val\r\nGET inline-key\r\n")); err != nil {
		t.Fatal(err)
	}
	r := newRespReader(conn)
	if rp, err := r.ReadReply(); err != nil || rp.Str != "OK" {
		t.Fatalf("inline SET: %+v, %v", rp, err)
	}
	if rp, err := r.ReadReply(); err != nil || string(rp.Bulk) != "inline-val" {
		t.Fatalf("inline GET: %+v, %v", rp, err)
	}
}

func TestServerProtocolErrorClosesConnection(t *testing.T) {
	_, addr := startServer(t, testConfig())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("*1\r\n:5\r\n")); err != nil {
		t.Fatal(err)
	}
	r := newRespReader(conn)
	rp, err := r.ReadReply()
	if err != nil || rp.Kind != '-' {
		t.Fatalf("expected error reply, got %+v, %v", rp, err)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("connection not closed after protocol error: %v", err)
	}
}

// TestServerConcurrentClients is the acceptance workload: 64 concurrent
// connections of mixed GET/SET/MGET against a 4-shard server, verified
// against a per-goroutine model, followed by a metrics scrape asserting
// non-zero per-shard counters.
func TestServerConcurrentClients(t *testing.T) {
	s, addr := startServer(t, testConfig())

	const conns = 64
	const opsPer = 40
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(30 * time.Second))
			rng := rand.New(rand.NewSource(int64(g)))
			mine := map[string]string{}
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("c%02d:%04d", g, rng.Intn(50))
				switch rng.Intn(3) {
				case 0: // SET
					val := fmt.Sprintf("v%d-%d", g, i)
					rp, err := c.Do("SET", key, val)
					if err != nil {
						errs <- fmt.Errorf("conn %d SET: %w", g, err)
						return
					}
					if rp.Kind == '-' && strings.HasPrefix(rp.Str, "BUSY") {
						continue // shed under load is legal
					}
					if rp.Str != "OK" {
						errs <- fmt.Errorf("conn %d SET: %s", g, rp.Text())
						return
					}
					mine[key] = val
				case 1: // GET
					rp, err := c.Do("GET", key)
					if err != nil {
						errs <- fmt.Errorf("conn %d GET: %w", g, err)
						return
					}
					if rp.Kind == '-' && strings.HasPrefix(rp.Str, "BUSY") {
						continue
					}
					want, ok := mine[key]
					if ok && string(rp.Bulk) != want {
						errs <- fmt.Errorf("conn %d GET %s = %q, want %q", g, key, rp.Bulk, want)
						return
					}
					if !ok && !rp.Null {
						errs <- fmt.Errorf("conn %d GET %s: unexpected hit %q", g, key, rp.Bulk)
						return
					}
				case 2: // MGET over three known keys
					k2 := fmt.Sprintf("c%02d:%04d", g, rng.Intn(50))
					k3 := fmt.Sprintf("c%02d:%04d", g, rng.Intn(50))
					rp, err := c.Do("MGET", key, k2, k3)
					if err != nil {
						errs <- fmt.Errorf("conn %d MGET: %w", g, err)
						return
					}
					if rp.Kind == '-' && strings.HasPrefix(rp.Str, "BUSY") {
						continue
					}
					if rp.Kind != '*' || len(rp.Array) != 3 {
						errs <- fmt.Errorf("conn %d MGET: %s", g, rp.Text())
						return
					}
					for j, k := range []string{key, k2, k3} {
						if want, ok := mine[k]; ok && !rp.Array[j].Null && string(rp.Array[j].Bulk) != want {
							errs <- fmt.Errorf("conn %d MGET %s = %q, want %q", g, k, rp.Array[j].Bulk, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Scrape /metrics over real HTTP and assert per-shard activity.
	body := scrapeMetrics(t, s)
	for shard := 0; shard < 4; shard++ {
		total := 0.0
		for _, op := range opNames {
			total += metricValue(t, body, fmt.Sprintf(`anykeyserver_ops_total{shard="%d",op="%s"}`, shard, op))
		}
		if total == 0 {
			t.Errorf("shard %d carried no ops", shard)
		}
		if clock := metricValue(t, body, fmt.Sprintf(`anykey_shard_clock_seconds{shard="%d"}`, shard)); clock <= 0 {
			t.Errorf("shard %d clock did not advance: %v", shard, clock)
		}
	}
	if !strings.Contains(body, "anykey_tail_blame_seconds{") {
		t.Error("blame gauges missing from exposition")
	}
	if !strings.Contains(body, "anykey_flash_writes_total{") {
		t.Error("flash counters missing from exposition")
	}
}

func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + s.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one sample by its exact series name from an
// exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found", series)
	return 0
}

// TestServerFleet drives the elastic-fleet surface over the wire: INFO's
// replication section, FLEET KILL with replicas serving every acked key,
// FLEET REBUILD bringing the member back, FLEET RMSHARD shrinking the ring
// under the same data, and the anykey_fleet_* metrics moving.
func TestServerFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2}
	s, addr := startServer(t, cfg)
	c := dialT(t, addr)

	rp, err := c.Do("INFO")
	if err != nil || !strings.Contains(string(rp.Bulk), "# Replication") ||
		!strings.Contains(string(rp.Bulk), "replication_factor:2") {
		t.Fatalf("INFO missing replication section: %s, %v", rp.Text(), err)
	}

	const keys = 40
	for i := 0; i < keys; i++ {
		if rp, err := c.Do("SET", fmt.Sprintf("fleet:%03d", i), "v"+strconv.Itoa(i)); err != nil || rp.Str != "OK" {
			t.Fatalf("SET %d: %s, %v", i, rp.Text(), err)
		}
	}

	// Tail blame follows the hardware: filled from shard 1's trace while it
	// serves, nothing while it is dead, and after the rebuild the
	// replacement's trace — never the dead device's last report.
	const blame1 = `anykey_tail_blame_threshold_seconds{shard="1"}`
	blameOpts := anykey.BlameOptions{Percentile: 99, MaxOps: 1}
	if v := metricValue(t, scrapeMetrics(t, s), blame1); v <= 0 {
		t.Fatalf("%s = %v after %d SETs, want > 0", blame1, v, keys)
	}
	deadTracer := s.cl.Tracers()[1]

	if rp, err := c.Do("FLEET", "KILL", "1", "grownbad"); err != nil || rp.Str != "OK" {
		t.Fatalf("FLEET KILL: %s, %v", rp.Text(), err)
	}
	rp, err = c.Do("FLEET", "STATUS")
	if err != nil || !strings.Contains(string(rp.Bulk), "member1:dead(grown-bad)") {
		t.Fatalf("FLEET STATUS after kill: %s, %v", rp.Text(), err)
	}
	if rep := s.cl.ShardBlame(1, blameOpts); rep != nil {
		t.Errorf("dead shard 1 still reports blame:\n%s", rep)
	}
	body := scrapeMetrics(t, s)
	if v, sum := metricValue(t, body, blame1), blameSum(t, body, 1); v != 0 || sum != 0 {
		t.Errorf("dead shard 1: blame threshold %v, blame sum %v; want both 0", v, sum)
	}
	// Every acknowledged key must still read back through surviving replicas.
	for i := 0; i < keys; i++ {
		rp, err := c.Do("GET", fmt.Sprintf("fleet:%03d", i))
		if err != nil || string(rp.Bulk) != "v"+strconv.Itoa(i) {
			t.Fatalf("GET %d with member 1 dead: %s, %v", i, rp.Text(), err)
		}
	}

	rp, err = c.Do("FLEET", "REBUILD", "1")
	if err != nil || rp.Kind != ':' {
		t.Fatalf("FLEET REBUILD: %s, %v", rp.Text(), err)
	}
	if rp.Int == 0 {
		t.Error("rebuild refilled no keys")
	}
	rp, err = c.Do("FLEET", "STATUS")
	if err != nil || !strings.Contains(string(rp.Bulk), "member1:alive") {
		t.Fatalf("FLEET STATUS after rebuild: %s, %v", rp.Text(), err)
	}
	// The member is back in the write quorum: writes acknowledge again.
	if rp, err := c.Do("SET", "fleet:post-rebuild", "pr"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET after rebuild: %s, %v", rp.Text(), err)
	}
	for i := 0; i < keys; i++ {
		if rp, err := c.Do("SET", fmt.Sprintf("fleet:fresh:%03d", i), "f"); err != nil || rp.Str != "OK" {
			t.Fatalf("fresh SET %d: %s, %v", i, rp.Text(), err)
		}
	}
	if s.cl.Tracers()[1] == deadTracer {
		t.Fatal("the rebuild did not give shard 1 a new tracer")
	}
	live := s.cl.ShardBlame(1, blameOpts) // also orders this goroutine after the shard's last writer
	stale := deadTracer.Blame(blameOpts)
	if live == nil || live.Threshold <= 0 || reflect.DeepEqual(live, stale) {
		t.Fatalf("shard 1 blame after rebuild and fresh traffic:\n%v\nthe dead device's:\n%v", live, stale)
	}
	body = scrapeMetrics(t, s)
	if v := metricValue(t, body, blame1); v != live.Threshold.Seconds() {
		t.Errorf("%s = %v, want the rebuilt device's %v (the dead device's was %v)",
			blame1, v, live.Threshold.Seconds(), stale.Threshold.Seconds())
	}
	if sum, want := blameSum(t, body, 1), live.TotalBlamed().Seconds(); math.Abs(sum-want) > 1e-9 {
		t.Errorf("shard 1 blame gauges sum to %v, want the rebuilt device's %v (the dead device's was %v)",
			sum, want, stale.TotalBlamed().Seconds())
	}

	rp, err = c.Do("FLEET", "RMSHARD", "2")
	if err != nil || rp.Kind != ':' || rp.Int == 0 {
		t.Fatalf("FLEET RMSHARD: %s, %v", rp.Text(), err)
	}
	rp, err = c.Do("FLEET", "STATUS")
	if err != nil || !strings.Contains(string(rp.Bulk), "member2:retired") ||
		!strings.Contains(string(rp.Bulk), "ring_members:3") {
		t.Fatalf("FLEET STATUS after rmshard: %s, %v", rp.Text(), err)
	}
	// The data survived both the rebuild and the reshard.
	for i := 0; i < keys; i++ {
		rp, err := c.Do("GET", fmt.Sprintf("fleet:%03d", i))
		if err != nil || string(rp.Bulk) != "v"+strconv.Itoa(i) {
			t.Fatalf("GET %d after rmshard: %s, %v", i, rp.Text(), err)
		}
	}

	body = scrapeMetrics(t, s)
	if v := metricValue(t, body, "anykey_fleet_rebuilds_total"); v != 1 {
		t.Errorf("anykey_fleet_rebuilds_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "anykey_fleet_epoch"); v != 1 {
		t.Errorf("anykey_fleet_epoch = %v, want 1", v)
	}
	if v := metricValue(t, body, "anykey_fleet_migrated_keys_total"); v == 0 {
		t.Error("anykey_fleet_migrated_keys_total did not move")
	}
	if v := metricValue(t, body, `anykey_shard_up{shard="1"}`); v != 1 {
		t.Errorf(`anykey_shard_up{shard="1"} = %v, want 1 after rebuild`, v)
	}
	if v := metricValue(t, body, `anykey_shard_up{shard="2"}`); v != 0 {
		t.Errorf(`anykey_shard_up{shard="2"} = %v, want 0 after rmshard`, v)
	}
}

// TestServerFleetArity: every FLEET subcommand takes an exact number of
// words, and a command with one too many or too few is refused whole — a
// trailing word is never dropped while the rest runs.
func TestServerFleetArity(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2}
	_, addr := startServer(t, cfg)
	c := dialT(t, addr)
	for _, tc := range []struct {
		args []string
		sub  string
	}{
		{[]string{"FLEET", "KILL", "1", "grownbad", "junk"}, "kill"},
		{[]string{"FLEET", "KILL"}, "kill"},
		{[]string{"FLEET", "STATUS", "x"}, "status"},
		{[]string{"FLEET", "REBUILD", "1", "x"}, "rebuild"},
		{[]string{"FLEET", "REBUILD"}, "rebuild"},
		{[]string{"FLEET", "RMSHARD", "1", "x"}, "rmshard"},
		{[]string{"FLEET", "rmshard"}, "rmshard"},
	} {
		want := "ERR wrong number of arguments for 'fleet " + tc.sub + "' command"
		if rp, err := c.Do(tc.args...); err != nil || rp.Kind != '-' || rp.Str != want {
			t.Errorf("%s: %s, %v; want -%s", strings.Join(tc.args, " "), rp.Text(), err, want)
		}
	}
	rp, err := c.Do("FLEET", "STATUS")
	if err != nil || !strings.Contains(string(rp.Bulk), "member1:alive") || !strings.Contains(string(rp.Bulk), "ring_members:4") {
		t.Fatalf("FLEET STATUS after refused commands: %s, %v", rp.Text(), err)
	}
}

// TestServerEmptyValue: a present key holding an empty value answers an
// empty bulk string, never the null bulk of a missing key, from GET and
// MGET — on a single-copy and a replicated server, while the value sits in
// the write buffer and after the buffer has flushed.
func TestServerEmptyValue(t *testing.T) {
	for _, factor := range []int{0, 2} {
		t.Run(fmt.Sprintf("R=%d", factor), func(t *testing.T) {
			cfg := testConfig()
			cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: factor}
			s, addr := startServer(t, cfg)
			c := dialT(t, addr)
			if rp, err := c.Do("SET", "e", ""); err != nil || rp.Str != "OK" {
				t.Fatalf("SET e \"\": %s, %v", rp.Text(), err)
			}
			check := func(when string) {
				t.Helper()
				if rp, err := c.Do("GET", "e"); err != nil || rp.Kind != '$' || rp.Null || len(rp.Bulk) != 0 {
					t.Fatalf("GET e %s: %+v, %v; want an empty bulk string", when, rp, err)
				}
				rp, err := c.Do("MGET", "e", "missing")
				if err != nil || len(rp.Array) != 2 || rp.Array[0].Null || len(rp.Array[0].Bulk) != 0 || !rp.Array[1].Null {
					t.Fatalf("MGET e missing %s: %+v, %v; want an empty bulk string and a null", when, rp, err)
				}
			}
			if st := s.cl.Stats(); st.Flash.TotalWrites() != 0 {
				t.Fatalf("%d flash writes before any flush", st.Flash.TotalWrites())
			}
			check("in the write buffer")
			filler := strings.Repeat("f", 4096)
			for i := 0; i < 400; i++ {
				if rp, err := c.Do("SET", "fill:"+strconv.Itoa(i), filler); err != nil || rp.Str != "OK" {
					t.Fatalf("SET fill:%d: %s, %v", i, rp.Text(), err)
				}
			}
			for _, ss := range s.cl.Stats().PerShard {
				if ss.Flash.TotalWrites() == 0 {
					t.Fatalf("shard %d never flushed its write buffer", ss.Shard)
				}
			}
			check("after the write buffer flushed")
		})
	}
}

// Fleet commands on a non-replicated server must refuse, not crash.
func TestServerFleetUnsupported(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c := dialT(t, addr)
	rp, err := c.Do("FLEET", "STATUS")
	if err != nil || rp.Kind != '-' || !strings.Contains(rp.Str, "replicated") {
		t.Fatalf("FLEET on non-replicated server: %s, %v", rp.Text(), err)
	}
}

func TestServerHealthz(t *testing.T) {
	s, _ := startServer(t, testConfig())
	resp, err := http.Get("http://" + s.MetricsAddr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestServerBusyShedding saturates shard 0 through the bridge's own
// admission counter: with every inflight slot taken the next command routed
// there must shed, and once the slots are given back the shard serves again.
func TestServerBusyShedding(t *testing.T) {
	cfg := testConfig()
	cfg.Inflight = 2
	s, addr := startServer(t, cfg)

	for i := 0; i < cfg.Inflight; i++ {
		if !s.br.admit(0) {
			t.Fatalf("slot %d of %d refused", i, cfg.Inflight)
		}
	}
	key := shardKey(t, s, 0)
	c := dialT(t, addr)
	rp, err := c.Do("SET", key, "v")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || !strings.HasPrefix(rp.Str, "BUSY") {
		t.Fatalf("expected -BUSY, got %s", rp.Text())
	}
	if shed := metricValue(t, scrapeMetrics(t, s), `anykeyserver_shed_total{shard="0"}`); shed == 0 {
		t.Error("shed counter did not move")
	}

	for i := 0; i < cfg.Inflight; i++ {
		s.br.release(0)
	}
	if rp, err := c.Do("SET", key, "v"); err != nil || rp.Str != "OK" {
		t.Fatalf("post-recovery SET: %+v, %v", rp, err)
	}
}

// TestInflightReturnsToZero runs every way a storage command can end — ok,
// shed in the middle of an MGET, -TIMEOUT, -ERR — and requires every shard's
// inflight gauge back at zero: no path leaks a slot.
func TestInflightReturnsToZero(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Nanosecond} {
		cfg := testConfig()
		cfg.Inflight = 4
		cfg.Timeout = timeout
		s, addr := startServer(t, cfg)
		c := dialT(t, addr)
		keys := make([]string, cfg.Cluster.Shards)
		for sh := range keys {
			keys[sh] = shardKey(t, s, sh)
		}
		tooBig := strings.Repeat("x", 5000) // over half a flash page: the device refuses it

		wantKind := func(rp Reply, err error, kind byte, prefix, what string) {
			t.Helper()
			if err != nil || rp.Kind != kind || !strings.HasPrefix(rp.Str, prefix) {
				t.Fatalf("timeout %v: %s: %s, %v", timeout, what, rp.Text(), err)
			}
		}
		okKind, okStr := byte('+'), "OK"
		if timeout > 0 {
			okKind, okStr = '-', "TIMEOUT"
		}
		rp, err := c.Do("MSET", keys[0], "a", keys[1], "b", keys[2], "c", keys[3], "d")
		wantKind(rp, err, okKind, okStr, "MSET")
		rp, err = c.Do("GET", keys[0])
		if timeout == 0 {
			wantKind(rp, err, '$', "", "GET")
		} else {
			wantKind(rp, err, '-', "TIMEOUT", "GET")
		}
		rp, err = c.Do("MGET", keys[0], "absent", keys[3])
		wantKind(rp, err, '*', "", "MGET")
		rp, err = c.Do("SCAN", "", "10")
		if timeout == 0 {
			wantKind(rp, err, '*', "", "SCAN")
		} else {
			wantKind(rp, err, '-', "TIMEOUT", "SCAN")
		}

		// Shard 1 full: the MGET's middle key is shed, its neighbours run.
		for i := 0; i < cfg.Inflight; i++ {
			if !s.br.admit(1) {
				t.Fatalf("slot %d of %d refused", i, cfg.Inflight)
			}
		}
		rp, err = c.Do("MGET", keys[0], keys[1], keys[2])
		wantKind(rp, err, '-', "BUSY", "MGET across a full shard")
		rp, err = c.Do("SCAN", "", "10")
		wantKind(rp, err, '-', "BUSY", "SCAN across a full shard")
		for i := 0; i < cfg.Inflight; i++ {
			s.br.release(1)
		}

		// The device refuses one write of an MSET; the others still run.
		rp, err = c.Do("MSET", keys[0], "a2", keys[1], tooBig, keys[2], "c2")
		wantKind(rp, err, '-', "ERR", "MSET with an oversized value")
		rp, err = c.Do("SET", keys[3], tooBig)
		wantKind(rp, err, '-', "ERR", "SET of an oversized value")
		rp, err = c.Do("DEL", keys[0], keys[1])
		wantKind(rp, err, ':', "", "DEL")

		body := scrapeMetrics(t, s)
		for sh := range keys {
			series := fmt.Sprintf(`anykeyserver_inflight{shard="%d"}`, sh)
			if v := metricValue(t, body, series); v != 0 {
				t.Errorf("timeout %v: %s = %v after every command was answered", timeout, series, v)
			}
		}
		if v := metricValue(t, body, `anykeyserver_shed_total{shard="1"}`); v != 2 {
			t.Errorf("timeout %v: shard 1 shed %v requests, want 2", timeout, v)
		}
		if v := metricValue(t, body, `anykeyserver_op_errors_total{shard="1"}`); v != 1 {
			t.Errorf("timeout %v: shard 1 counted %v failed ops, want 1", timeout, v)
		}
	}
}

// shardKey finds a key routed to the given shard.
func shardKey(t *testing.T, s *Server, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := "probe:" + strconv.Itoa(i)
		if s.cl.ShardFor([]byte(k)) == shard {
			return k
		}
	}
	t.Fatal("no key found for shard")
	return ""
}

// TestServerVirtualTimeout: with a budget no simulated operation can meet,
// every storage command reports the overrun in its own reply shape. The work
// was still done — the device cannot be un-asked — only the reply is late.
func TestServerVirtualTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = time.Nanosecond // every simulated op takes longer than 1ns
	_, addr := startServer(t, cfg)
	c := dialT(t, addr)
	for _, tc := range []struct {
		cmd  []string
		want string
	}{
		{[]string{"SET", "k", "v"}, "(error) TIMEOUT virtual latency budget exceeded"},
		{[]string{"MSET", "a", "1", "b", "2"}, "(error) TIMEOUT virtual latency budget exceeded"},
		{[]string{"GET", "k"}, "(error) TIMEOUT virtual latency budget exceeded"},
		{[]string{"MGET", "a", "b"}, "1) (nil)\n2) (nil)"},
		{[]string{"DEL", "a", "b"}, "0"},
		{[]string{"SCAN", "", "10"}, "(error) TIMEOUT virtual latency budget exceeded"},
	} {
		rp, err := c.Do(tc.cmd...)
		if err != nil {
			t.Fatalf("%v: %v", tc.cmd, err)
		}
		if got := rp.Text(); got != tc.want {
			t.Errorf("%v answered %q, want %q", tc.cmd, got, tc.want)
		}
	}
}

func TestServerTimeScale(t *testing.T) {
	cfg := testConfig()
	cfg.TimeScale = 1000 // 1ms of wall time ages the clocks a full second
	s, addr := startServer(t, cfg)
	c := dialT(t, addr)
	if rp, err := c.Do("SET", "k", "v"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET: %+v, %v", rp, err)
	}
	time.Sleep(5 * time.Millisecond)
	if rp, err := c.Do("SET", "k2", "v2"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET: %+v, %v", rp, err)
	}
	// After ≥5ms of wall time at 1000x, at least one shard clock must have
	// advanced several virtual seconds — far beyond what two small writes
	// could account for on their own.
	if now := s.cl.Now(); now < anykey.Time(time.Second.Nanoseconds()) {
		t.Fatalf("cluster clock %v did not track scaled wall time", now)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	c, err := Dial(s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if rp, err := c.Do("SET", "k", "v"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET: %+v, %v", rp, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	// The listener is gone …
	if _, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	// … the old connection is drained and closed …
	if _, err := c.Do("PING"); err == nil {
		t.Fatal("drained connection still answering")
	}
	// … and the cluster is closed.
	if _, err := s.cl.Put([]byte("k"), []byte("v")); !errors.Is(err, anykey.ErrClosed) {
		t.Fatalf("cluster not closed: %v", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestServerShutdownReportsCloseError(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	s.closeCluster = func() error { return errors.New("injected close failure") }

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "injected close failure") {
		t.Fatalf("shutdown error = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	s.cl.Close()
}

// settledGoroutines returns the goroutine count once it has stopped moving:
// an earlier test's server has only just shut down, and the HTTP client's
// keep-alive readers for it exit on their own schedule.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for same := 0; same < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count still moving (%d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, same = m, 0
		} else {
			same++
		}
	}
	return n
}

// TestShutdownLeavesNoGoroutines: whatever the clients were doing — idle
// between pipelined bursts, half-closed, or never reading a reply so the
// handler is stuck in a socket write — once Shutdown returns the server has
// no goroutine left.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := settledGoroutines(t)
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	addr := s.Addr().String()

	big := strings.Repeat("b", 4000)
	var wg sync.WaitGroup
	clients := make([]*Client, 14)
	errs := make(chan error, len(clients))
	for g := range clients {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		clients[g] = c
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const n = 40
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("g%02d:%02d", g, i)
				c.Send("SET", k, big)
				c.Send("MGET", k, "absent")
				c.Send("SCAN", k, "2")
			}
			if err := c.Flush(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 3*n; i++ {
				if rp, err := c.Receive(); err != nil || rp.Kind == '-' {
					errs <- fmt.Errorf("conn %d reply %d: %s, %v", g, i, rp.Text(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A client that sends its pipeline, shuts its write side and then reads.
	half, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	half.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := half.Write([]byte("GET g00:00\r\nGET g00:01\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := half.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	r := newRespReader(half)
	for i := 0; i < 2; i++ {
		if rp, err := r.ReadReply(); err != nil || string(rp.Bulk) != big {
			t.Fatalf("half-closed reply %d: %v", i, err)
		}
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("half-closed connection not closed by the server: %v", err)
	}

	// A client that never reads: it writes GETs until the write itself
	// stalls, which means both socket buffers are full, which means the
	// handler has stopped reading because it is blocked writing replies. No
	// read deadline wakes that; Shutdown's forced close at context expiry
	// does.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	gets := bytes.Repeat([]byte("GET g00:00\r\n"), 4096)
	for i := 0; ; i++ {
		if i == 4096 {
			t.Fatal("the server took 16 M commands from a client that reads nothing")
		}
		mute.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := mute.Write(gets); err != nil {
			break
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	for _, c := range clients {
		c.Close()
	}
	half.Close()
	mute.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before New:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoroutinesIndependentOfShards: the server's goroutines are its accept
// loop, its HTTP endpoint and one per connection — none per shard.
func TestGoroutinesIndependentOfShards(t *testing.T) {
	serving := func(shards int) int {
		before := settledGoroutines(t)
		cfg := testConfig()
		cfg.Cluster.Shards = shards
		_, addr := startServer(t, cfg)
		c := dialT(t, addr)
		if rp, err := c.Do("PING"); err != nil || rp.Str != "PONG" {
			t.Fatalf("PING: %+v, %v", rp, err)
		}
		return settledGoroutines(t) - before
	}
	if one, eight := serving(1), serving(8); one != eight {
		t.Errorf("a 1-shard server runs %d goroutines, an 8-shard server %d", one, eight)
	}
}

// TestExportedNamesPinned holds every /metrics family (name and type), every
// INFO key and every FLEET STATUS key to a golden list: dashboards, scripts
// and bench/server.go parse them, so a refactor of how they are registered
// must not rename any.
func TestExportedNamesPinned(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Shards = 2
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2}
	cfg.Cluster.Device.Cache = &anykey.CacheOptions{CapacityBytes: 1 << 20}
	s, addr := startServer(t, cfg)
	c := dialT(t, addr)

	var families []string
	for _, line := range strings.Split(scrapeMetrics(t, s), "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, fam)
		}
	}
	if want := strings.Split(strings.TrimSpace(goldenFamilies), "\n"); !slices.Equal(families, want) {
		t.Errorf("/metrics families:\n%s\nwant:%s", strings.Join(families, "\n"), goldenFamilies)
	}

	rp, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	section := ""
	for _, line := range strings.Split(string(rp.Bulk), "\r\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			section = name
		} else if k, _, ok := strings.Cut(line, ":"); ok {
			keys = append(keys, section+"."+k)
		}
	}
	if want := strings.Fields(goldenInfoKeys); !slices.Equal(keys, want) {
		t.Errorf("INFO keys:\n%s\nwant:%s", strings.Join(keys, "\n"), goldenInfoKeys)
	}

	rp, err = c.Do("FLEET", "STATUS")
	if err != nil {
		t.Fatal(err)
	}
	keys = keys[:0]
	for _, line := range strings.Split(string(rp.Bulk), "\r\n") {
		if k, _, ok := strings.Cut(line, ":"); ok {
			keys = append(keys, k)
		}
	}
	if want := strings.Fields(goldenFleetStatusKeys); !slices.Equal(keys, want) {
		t.Errorf("FLEET STATUS keys:\n%s\nwant:%s", strings.Join(keys, "\n"), goldenFleetStatusKeys)
	}
}

// The exported surface of a replicated, cached server, in exposition order.
const goldenFamilies = `
anykey_cache_admitted_total counter
anykey_cache_bytes gauge
anykey_cache_evicted_total counter
anykey_cache_hits_total counter
anykey_cache_misses_total counter
anykey_chained_compactions_total counter
anykey_flash_erases_total counter
anykey_flash_reads_total counter
anykey_flash_writes_total counter
anykey_fleet_cleanup_deletes_total counter
anykey_fleet_dead_members gauge
anykey_fleet_epoch gauge
anykey_fleet_migrated_bytes_total counter
anykey_fleet_migrated_keys_total counter
anykey_fleet_migration_active gauge
anykey_fleet_quorum_failures_total counter
anykey_fleet_read_fallbacks_total counter
anykey_fleet_read_repairs_total counter
anykey_fleet_rebuilds_total counter
anykey_fleet_rebuilt_keys_total counter
anykey_fleet_ring_members gauge
anykey_gc_relocations_total counter
anykey_gc_runs_total counter
anykey_heap_bytes gauge
anykey_journal_checkpoints_total counter
anykey_journal_pages_total counter
anykey_live_bytes gauge
anykey_live_keys gauge
anykey_log_compactions_total counter
anykey_shard_clock_seconds gauge
anykey_shard_ops_total counter
anykey_shard_up gauge
anykey_store_logical_bytes gauge
anykey_store_resident_bytes gauge
anykey_sync_flushes_total counter
anykey_syncs_total counter
anykey_tail_blame_seconds gauge
anykey_tail_blame_threshold_seconds gauge
anykey_tree_compactions_total counter
anykey_txn_aborts_total counter
anykey_txn_commits_total counter
anykey_txn_retries_total counter
anykey_txn_split_merges_total counter
anykeyserver_connections gauge
anykeyserver_connections_total counter
anykeyserver_inflight gauge
anykeyserver_latency_seconds histogram
anykeyserver_op_errors_total counter
anykeyserver_ops_total counter
anykeyserver_queue_wait_seconds histogram
anykeyserver_shed_total counter
anykeyserver_timeouts_total counter`

const goldenInfoKeys = `
Server.uptime_seconds
Server.time_scale
Server.shards
Cluster.ops
Cluster.virtual_clock_seconds
Cluster.live_keys
Cluster.live_bytes
Cluster.flash_writes
Cluster.gc_runs
Cluster.syncs
Cluster.journal_pages
Cluster.journal_checkpoints
Cluster.sync_flushes
Transactions.txn_commits
Transactions.txn_aborts
Transactions.txn_conflicts
Transactions.txn_retries
Transactions.txn_atomic_batches
Transactions.txn_prepares
Transactions.txn_split_merges
Transactions.txn_split_ops
Transactions.txn_hot_keys
Transactions.txn_rolled_forward
Transactions.txn_rolled_back
Memory.store_mode
Memory.store_live_pages
Memory.store_logical_bytes
Memory.store_resident_bytes
Cache.cache_hits
Cache.cache_misses
Cache.cache_admitted
Cache.cache_evicted
Cache.cache_bytes
Cache.cache_entries
Replication.replication_factor
Replication.write_quorum
Replication.read_mode
Replication.epoch
Replication.ring_members
Replication.dead_members
Replication.quorum_failures
Replication.read_fallbacks
Replication.migrated_keys
Replication.rebuilds
Shard0.ops
Shard0.virtual_clock_seconds
Shard0.live_keys
Shard1.ops
Shard1.virtual_clock_seconds
Shard1.live_keys`

const goldenFleetStatusKeys = `
factor
write_quorum
read_mode
epoch
migration_active
ring_members
dead_members
quorum_failures
read_fallbacks
read_repairs
migrated_keys
migrated_bytes
cleanup_deletes
rebuilds
rebuilt_keys
member0
member1`
