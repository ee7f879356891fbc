package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"anykey"
)

func TestServerTxnCommands(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c := dialT(t, addr)

	// INCR / INCRBY: counter semantics from absent.
	if rp, err := c.Do("INCR", "ctr"); err != nil || rp.Int != 1 {
		t.Fatalf("INCR: %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCRBY", "ctr", "41"); err != nil || rp.Int != 42 {
		t.Fatalf("INCRBY: %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCRBY", "ctr", "-2"); err != nil || rp.Int != 40 {
		t.Fatalf("INCRBY negative: %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCRBY", "ctr", "nope"); err != nil || rp.Kind != '-' {
		t.Fatalf("INCRBY bad delta: %+v, %v", rp, err)
	}
	if rp, err := c.Do("SET", "text", "abc"); err != nil || rp.Str != "OK" {
		t.Fatalf("SET: %+v, %v", rp, err)
	}
	if rp, err := c.Do("INCR", "text"); err != nil || rp.Kind != '-' {
		t.Fatalf("INCR non-numeric: %+v, %v", rp, err)
	}

	// APPEND builds up a value.
	if rp, err := c.Do("APPEND", "log", "ab"); err != nil || rp.Str != "OK" {
		t.Fatalf("APPEND: %+v, %v", rp, err)
	}
	if rp, err := c.Do("APPEND", "log", "cd"); err != nil || rp.Str != "OK" {
		t.Fatalf("APPEND 2: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "log"); err != nil || string(rp.Bulk) != "abcd" {
		t.Fatalf("GET log: %+v, %v", rp, err)
	}

	// CAS: expect-absent, then swap, then a mismatch answers -CONFLICT.
	if rp, err := c.Do("CAS", "cas", "", "init"); err != nil || rp.Str != "OK" {
		t.Fatalf("CAS absent: %+v, %v", rp, err)
	}
	if rp, err := c.Do("CAS", "cas", "init", "next"); err != nil || rp.Str != "OK" {
		t.Fatalf("CAS swap: %+v, %v", rp, err)
	}
	rp, err := c.Do("CAS", "cas", "init", "never")
	if err != nil || rp.Kind != '-' || !strings.HasPrefix(rp.Str, "CONFLICT") {
		t.Fatalf("CAS mismatch: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "cas"); err != nil || string(rp.Bulk) != "next" {
		t.Fatalf("GET cas: %+v, %v", rp, err)
	}

	// MULTI … EXEC commits an atomic cross-shard batch.
	if rp, err := c.Do("MULTI"); err != nil || rp.Str != "OK" {
		t.Fatalf("MULTI: %+v, %v", rp, err)
	}
	if rp, err := c.Do("SET", "ma", "1"); err != nil || rp.Str != "QUEUED" {
		t.Fatalf("queued SET: %+v, %v", rp, err)
	}
	if rp, err := c.Do("SET", "mb", "2"); err != nil || rp.Str != "QUEUED" {
		t.Fatalf("queued SET 2: %+v, %v", rp, err)
	}
	if rp, err := c.Do("DEL", "text"); err != nil || rp.Str != "QUEUED" {
		t.Fatalf("queued DEL: %+v, %v", rp, err)
	}
	rp, err = c.Do("EXEC")
	if err != nil || rp.Kind != '*' || len(rp.Array) != 3 {
		t.Fatalf("EXEC: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "mb"); err != nil || string(rp.Bulk) != "2" {
		t.Fatalf("GET after EXEC: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "text"); err != nil || !rp.Null {
		t.Fatalf("deleted key after EXEC: %+v, %v", rp, err)
	}

	// DISCARD abandons the queue.
	c.Do("MULTI")
	c.Do("SET", "discarded", "x")
	if rp, err := c.Do("DISCARD"); err != nil || rp.Str != "OK" {
		t.Fatalf("DISCARD: %+v, %v", rp, err)
	}
	if rp, err := c.Do("GET", "discarded"); err != nil || !rp.Null {
		t.Fatalf("discarded write landed: %+v, %v", rp, err)
	}

	// Block hygiene: EXEC/DISCARD without MULTI, nested MULTI, a poisoned
	// block answering -EXECABORT, and an empty block.
	if rp, _ := c.Do("EXEC"); rp.Kind != '-' {
		t.Fatalf("EXEC without MULTI: %+v", rp)
	}
	if rp, _ := c.Do("DISCARD"); rp.Kind != '-' {
		t.Fatalf("DISCARD without MULTI: %+v", rp)
	}
	c.Do("MULTI")
	if rp, _ := c.Do("MULTI"); rp.Kind != '-' {
		t.Fatalf("nested MULTI: %+v", rp)
	}
	if rp, _ := c.Do("GET", "ma"); rp.Kind != '-' {
		t.Fatalf("GET inside MULTI should refuse to queue: %+v", rp)
	}
	rp, _ = c.Do("EXEC")
	if rp.Kind != '-' || !strings.HasPrefix(rp.Str, "EXECABORT") {
		t.Fatalf("poisoned EXEC: %+v", rp)
	}
	c.Do("MULTI")
	if rp, _ := c.Do("EXEC"); rp.Kind != '*' || len(rp.Array) != 0 {
		t.Fatalf("empty EXEC: %+v", rp)
	}

	// INFO carries the # Transactions section; /metrics the txn families.
	rp, err = c.Do("INFO")
	if err != nil || !strings.Contains(string(rp.Bulk), "# Transactions") {
		t.Fatalf("INFO missing transactions section: %v", err)
	}
	if !strings.Contains(string(rp.Bulk), "txn_commits:") {
		t.Fatalf("INFO missing txn_commits:\n%s", rp.Bulk)
	}
	resp, err := http.Get("http://" + s.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"anykey_txn_commits_total",
		"anykey_txn_aborts_total",
		"anykey_txn_retries_total",
		"anykey_txn_split_merges_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Fatalf("/metrics missing %s", family)
		}
	}
}

// TestServerTxnSoak drives MULTI/EXEC batches and shared-counter INCRs from
// concurrent clients against a replicated fleet, kills a member mid-run, and
// checks the survivors' invariants: every acknowledged batch is fully
// visible, and the shared counter ends between the acknowledged and the
// attempted increment totals.
func TestServerTxnSoak(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2}
	srv, addr := startServer(t, cfg)

	const clients = 4
	const rounds = 60
	type batchRec struct {
		keys []string
		val  string
	}
	ackedIncr := make([]int64, clients)
	ackedBatches := make([][]batchRec, clients)
	// execBatch commits three fresh keys under one MULTI/EXEC and reports
	// whether the server acknowledged it.
	execBatch := func(c *Client, name string) (batchRec, bool, error) {
		rec := batchRec{val: "v-" + name}
		c.Do("MULTI")
		for k := 0; k < 3; k++ {
			rec.keys = append(rec.keys, fmt.Sprintf("soak:%s:%d", name, k))
			c.Do("SET", rec.keys[k], rec.val)
		}
		rp, err := c.Do("EXEC")
		return rec, err == nil && rp.Kind == '*', err
	}

	// While every member is still alive, one connection commits enough
	// batches for the members' journals to meet their bound: at two or more
	// journal pages per batch and involved member, forty batches overrun a
	// 32-page journal wherever the keys land. How far the clients below get
	// before one of them kills a member depends on scheduling; this does not.
	warm := dialT(t, addr)
	for r := 0; r < 40; r++ {
		rec, acked, err := execBatch(warm, fmt.Sprintf("warm:%03d", r))
		if !acked {
			t.Fatalf("warm-up batch %d not acknowledged: %v", r, err)
		}
		ackedBatches[0] = append(ackedBatches[0], rec)
	}

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialT(t, addr)
			for r := 0; r < rounds; r++ {
				if cl == 0 && r == rounds/2 {
					if rp, err := c.Do("FLEET", "KILL", "1", "powercut"); err != nil || rp.Kind == '-' {
						t.Errorf("FLEET KILL: %+v, %v", rp, err)
					}
				}
				if rp, err := c.Do("INCR", "soak:ctr"); err != nil {
					t.Errorf("client %d INCR transport: %v", cl, err)
					return
				} else if rp.Kind == ':' {
					ackedIncr[cl]++
				}
				if r%3 != 0 {
					continue
				}
				rec, acked, err := execBatch(c, fmt.Sprintf("%02d:%03d", cl, r))
				if err != nil {
					t.Errorf("client %d EXEC transport: %v", cl, err)
					return
				}
				if acked {
					ackedBatches[cl] = append(ackedBatches[cl], rec)
				}
			}
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	c := dialT(t, addr)
	var acked, attempts int64
	for cl := 0; cl < clients; cl++ {
		acked += ackedIncr[cl]
		attempts += rounds
	}
	if acked == 0 {
		t.Fatal("no increment was ever acknowledged")
	}
	rp, err := c.Do("INCRBY", "soak:ctr", "0")
	if err != nil || rp.Kind != ':' {
		t.Fatalf("final INCRBY 0: %+v, %v", rp, err)
	}
	// Acknowledged increments are quorum-durable and survive the kill; an
	// unacknowledged attempt may still have landed on a survivor, so the
	// final value is bounded by attempts, not equal to acked.
	if rp.Int < acked || rp.Int > attempts {
		t.Fatalf("counter %d outside [acked %d, attempts %d]", rp.Int, acked, attempts)
	}

	// Every acknowledged batch is fully visible — replica fallback serves
	// the dead member's share.
	for cl := 0; cl < clients; cl++ {
		for _, rec := range ackedBatches[cl] {
			for _, k := range rec.keys {
				rp, err := c.Do("GET", k)
				if err != nil || string(rp.Bulk) != rec.val {
					t.Fatalf("acked batch key %s: %+v, %v", k, rp, err)
				}
			}
		}
	}

	// The transaction counters made it into INFO, and so did the sync path's:
	// every batch synced its shards three times, each sync journaled instead
	// of compacting. At this volume the journals meet their bound and no
	// write buffer comes near filling, so the bound is always met by a
	// checkpoint, never by a flush, and the tree sees fewer compactions than
	// there were batches (none, in fact).
	rp, err = c.Do("INFO")
	if err != nil || !strings.Contains(string(rp.Bulk), "# Transactions") {
		t.Fatalf("INFO after soak: %v", err)
	}
	info := string(rp.Bulk)
	batches := infoInt(t, info, "txn_atomic_batches")
	if batches == 0 || infoInt(t, info, "syncs") < 3*batches || infoInt(t, info, "journal_pages") < 3*batches {
		t.Fatalf("%d batches but %d syncs and %d journal pages in INFO", batches,
			infoInt(t, info, "syncs"), infoInt(t, info, "journal_pages"))
	}
	body := scrapeMetrics(t, srv)
	if got := metricSum(t, body, "anykey_syncs_total"); got != float64(infoInt(t, info, "syncs")) {
		t.Fatalf("anykey_syncs_total sums to %v, INFO says %d", got, infoInt(t, info, "syncs"))
	}
	if got := metricSum(t, body, "anykey_journal_pages_total"); got != float64(infoInt(t, info, "journal_pages")) {
		t.Fatalf("anykey_journal_pages_total sums to %v, INFO says %d", got, infoInt(t, info, "journal_pages"))
	}
	if got := metricSum(t, body, "anykey_sync_flushes_total"); got != float64(infoInt(t, info, "sync_flushes")) {
		t.Fatalf("anykey_sync_flushes_total sums to %v, INFO says %d", got, infoInt(t, info, "sync_flushes"))
	}
	if got := metricSum(t, body, "anykey_journal_checkpoints_total"); got != float64(infoInt(t, info, "journal_checkpoints")) {
		t.Fatalf("anykey_journal_checkpoints_total sums to %v, INFO says %d", got, infoInt(t, info, "journal_checkpoints"))
	}
	if flushes, checkpoints := infoInt(t, info, "sync_flushes"), infoInt(t, info, "journal_checkpoints"); flushes != 0 || checkpoints == 0 {
		t.Fatalf("%d sync flushes and %d journal checkpoints; want the bound met by checkpoints only", flushes, checkpoints)
	}
	if comp := metricSum(t, body, "anykey_tree_compactions_total"); comp >= float64(batches) {
		t.Fatalf("%v tree compactions for %d atomic batches: syncs are compacting again", comp, batches)
	}
}

// infoInt reads one integer field of an INFO reply.
func infoInt(t *testing.T, info, field string) int64 {
	t.Helper()
	for _, line := range strings.Split(info, "\r\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("INFO field %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("INFO has no field %q", field)
	return 0
}

// metricSum adds up every series of one family in an exposition body.
func metricSum(t *testing.T, body, family string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("family %q not found", family)
	}
	return sum
}

// TestServerScrapeConcurrentWithTxns pins who may touch a shard's tracer.
// Every connection goroutine is a writer: plain commands through the bridge,
// INCR and EXEC through the transaction layer, and with Factor 2 every write
// also lands on the other shard — all of them emit into the tracer under the
// shard's lock. Tail blame reads the same rings, so it must take the same
// lock; it does so at scrape time, and this test scrapes while op-bounded
// clients mix every kind of writer. Under -race it fails on any unlocked
// reader.
func TestServerScrapeConcurrentWithTxns(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Shards = 2
	cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2}
	s, addr := startServer(t, cfg)

	const (
		clients = 4
		rounds  = 120 // per client; each round is one command or one MULTI block
		keyRing = 16
		scrapes = 30
	)
	var wg sync.WaitGroup
	incrs := make([]int64, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialT(t, addr)
			ctr := fmt.Sprintf("race:ctr:%d", cl) // private: no OCC conflicts, so every INCR must land
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("race:%d:%02d", cl, r%keyRing)
				var rp Reply
				var err error
				ok := func(Reply) bool { return true }
				switch r % 4 {
				case 0:
					rp, err = c.Do("SET", key, "v")
					ok = func(rp Reply) bool { return rp.Str == "OK" }
				case 1:
					rp, err = c.Do("GET", key)
					ok = func(rp Reply) bool { return rp.Kind == '$' }
				case 2:
					rp, err = c.Do("INCR", ctr)
					ok = func(rp Reply) bool { return rp.Kind == ':' }
					incrs[cl]++
				case 3:
					c.Do("MULTI")
					c.Do("SET", key, "m")
					c.Do("SET", fmt.Sprintf("race:%d:%02d", cl, (r+1)%keyRing), "m")
					rp, err = c.Do("EXEC")
					ok = func(rp Reply) bool { return rp.Kind == '*' }
				}
				if err != nil || !ok(rp) {
					t.Errorf("client %d round %d: %s, %v", cl, r, rp.Text(), err)
					return
				}
			}
		}(cl)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get("http://" + s.MetricsAddr().String() + "/metrics")
			if err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	c := dialT(t, addr)
	for cl := 0; cl < clients; cl++ {
		rp, err := c.Do("INCRBY", fmt.Sprintf("race:ctr:%d", cl), "0")
		if err != nil || rp.Int != incrs[cl] {
			t.Errorf("client %d counter = %s, %v; want %d", cl, rp.Text(), err, incrs[cl])
		}
	}
	// The gauges are filled by the scrape itself, from both shards' traces.
	body := scrapeMetrics(t, s)
	for shard := 0; shard < cfg.Cluster.Shards; shard++ {
		if v := metricValue(t, body, fmt.Sprintf(`anykey_tail_blame_threshold_seconds{shard="%d"}`, shard)); v <= 0 {
			t.Errorf("shard %d: blame threshold %v after traffic, want > 0", shard, v)
		}
		if v := blameSum(t, body, shard); v <= 0 {
			t.Errorf("shard %d: blame gauges sum to %v after traffic, want > 0", shard, v)
		}
	}
}

// blameSum adds up one shard's anykey_tail_blame_seconds gauges.
func blameSum(t *testing.T, body string, shard int) float64 {
	t.Helper()
	var sum float64
	prefix := fmt.Sprintf(`anykey_tail_blame_seconds{shard="%d",`, shard)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			sum += metricValue(t, body, line[:strings.IndexByte(line, ' ')])
		}
	}
	return sum
}
