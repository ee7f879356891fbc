package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
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

// TestServerBusyShedding saturates one shard loop deterministically: a held
// request parks the loop, Inflight more fill the queue, and the next
// submission must shed.
func TestServerBusyShedding(t *testing.T) {
	cfg := testConfig()
	cfg.Inflight = 2
	s, addr := startServer(t, cfg)

	// Park shard 0's loop on a held request. The deferred release also
	// covers failure paths, so shutdown never waits on a parked loop.
	hold := make(chan struct{})
	held := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(hold) })
	defer releaseOnce()
	parked := &request{op: opGet, key: []byte("x"), wall: time.Now(),
		resp: make(chan response, 1), hold: hold, held: held}
	if !s.br.submit(0, parked) {
		t.Fatal("parked request shed immediately")
	}
	<-held // the loop owns the parked request; its queue slot is free
	// Fill the queue behind it.
	fillers := make([]*request, cfg.Inflight)
	for i := range fillers {
		fillers[i] = &request{op: opGet, key: []byte("x"), wall: time.Now(),
			resp: make(chan response, 1)}
		if !s.br.submit(0, fillers[i]) {
			t.Fatalf("filler %d shed before the queue was full", i)
		}
	}

	// A real client command routed to shard 0 must now answer -BUSY.
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

	// Release the loop and confirm the shard recovers.
	releaseOnce()
	<-parked.resp
	for _, f := range fillers {
		<-f.resp
	}
	if rp, err := c.Do("SET", key, "v"); err != nil || rp.Str != "OK" {
		t.Fatalf("post-recovery SET: %+v, %v", rp, err)
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

func TestServerVirtualTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = time.Nanosecond // every simulated op takes longer than 1ns
	_, addr := startServer(t, cfg)
	c := dialT(t, addr)
	rp, err := c.Do("SET", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != '-' || !strings.HasPrefix(rp.Str, "TIMEOUT") {
		t.Fatalf("expected -TIMEOUT, got %s", rp.Text())
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
