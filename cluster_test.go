package anykey

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func smallClusterOpts() ClusterOptions {
	return ClusterOptions{
		Shards:     4,
		QueueDepth: 8,
		Device:     Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4},
	}
}

func TestDefaultOptionsNormalized(t *testing.T) {
	o := DefaultOptions()
	if o.CapacityMB != 128 || o.PageSize != 8192 || o.Channels != 8 || o.ChipsPerChannel != 8 {
		t.Fatalf("geometry defaults wrong: %+v", o)
	}
	if o.DRAMBytes == 0 || o.MemtableBytes == 0 || o.GrowthFactor != 4 ||
		o.GroupPages != 32 || o.LogFraction != 0.50 || o.Seed != 1 {
		t.Fatalf("derived defaults not normalized: %+v", o)
	}
	// A device opened from the normalized defaults must behave exactly like
	// one opened from the zero Options: same clock after the same ops.
	a, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if _, err := a.Put(k, bytes.Repeat([]byte{'x'}, 100)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Put(k, bytes.Repeat([]byte{'x'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Now() != b.Now() {
		t.Fatalf("zero Options and DefaultOptions diverge: %v vs %v", a.Now(), b.Now())
	}
}

func TestValidateNormalizesInPlace(t *testing.T) {
	o := Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.CapacityMB != 16 || o.Channels != 4 {
		t.Fatal("explicit values overwritten")
	}
	if o.DRAMBytes == 0 || o.Seed == 0 || o.GroupPages == 0 {
		t.Fatalf("zero values not normalized: %+v", o)
	}
	// Validating twice is a no-op.
	before := o
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o != before {
		t.Fatal("second Validate changed a normalized Options")
	}
}

// TestErrorSentinelRoundTrips pins the public error contract: every failure
// mode surfaces a sentinel reachable with errors.Is through %w wrapping.
func TestErrorSentinelRoundTrips(t *testing.T) {
	// ErrInvalidOptions: out-of-range field.
	if _, err := Open(Options{CapacityMB: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative capacity: %v", err)
	}
	// ErrInvalidOptions: unknown design.
	if _, err := Open(Options{Design: Design(42)}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("unknown design: %v", err)
	}
	// ErrInvalidOptions: geometry too small for the chip grid.
	if _, err := Open(Options{CapacityMB: 8}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("tiny capacity: %v", err)
	}
	// ErrInvalidOptions: group larger than an erase block.
	if _, err := Open(Options{GroupPages: 1 << 20}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("oversized group: %v", err)
	}

	dev, err := Open(Options{CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	// ErrInvalidOptions: bad engine depth.
	if _, err := dev.NewEngine(0); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("depth 0: %v", err)
	}
	// ErrNotFound and ErrEmptyKey from operations.
	if _, _, err := dev.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
	if _, err := dev.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	// ErrClosed after Close.
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed put: %v", err)
	}

	// ErrUnsupported: PowerCycle on PinK.
	pk, err := Open(Options{Design: DesignPinK, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.PowerCycle(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("pink power cycle: %v", err)
	}

	// Cluster sentinels.
	if _, err := OpenCluster(ClusterOptions{Shards: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative shards: %v", err)
	}
	if _, err := OpenCluster(ClusterOptions{Router: RouterPolicy(42)}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("unknown router: %v", err)
	}
	if _, err := OpenCluster(ClusterOptions{Device: Options{Faults: &FaultPlan{ReadErrorRate: 0.1}}}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("cluster faults: %v", err)
	}
}

func TestClusterRoundTrip(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d", c.Shards())
	}

	var keys, vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user:%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('a' + i%26)}, 80))
	}
	pr, err := c.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if pr.Latency() < 0 {
		t.Fatalf("negative batch latency %v", pr.Latency())
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gr.Errs[i] != nil {
			t.Fatalf("get %q: %v", keys[i], gr.Errs[i])
		}
		if !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("get %q: wrong value", keys[i])
		}
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LiveKeys != 200 || len(st.PerShard) != 4 {
		t.Fatalf("stats rollup: %d live keys over %d shards", st.LiveKeys, len(st.PerShard))
	}
	if md := c.Metadata(); len(md) == 0 {
		t.Fatal("empty metadata rollup")
	}

	// Single-key path agrees with the router.
	k := []byte("single")
	if _, err := c.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Get(k)
	if err != nil || string(v) != "v" {
		t.Fatalf("single get: %q, %v", v, err)
	}
	if _, err := c.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MultiGet([][]byte{[]byte("k")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed MultiGet: %v", err)
	}
	if _, err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed Put: %v", err)
	}
	if _, err := c.Barrier(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed Barrier: %v", err)
	}
}

func TestClusterShardSeedsDecorrelated(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Identical per-shard seeds would be invisible from the outside, but
	// the per-shard clocks after an even load should not be in lockstep for
	// every shard pair — a weak but cheap decorrelation check.
	var keys, vals [][]byte
	for i := 0; i < 400; i++ {
		keys = append(keys, []byte(fmt.Sprintf("spread:%06d", i)))
		vals = append(vals, bytes.Repeat([]byte{'z'}, 120))
	}
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	clocks := map[Time]bool{}
	for _, ss := range st.PerShard {
		clocks[ss.Now] = true
	}
	if len(clocks) < 2 {
		t.Fatalf("all %d shard clocks identical (%v) — suspicious lockstep", len(st.PerShard), st.Now)
	}
}

func TestClusterTraceExport(t *testing.T) {
	opts := smallClusterOpts()
	opts.Shards = 2
	opts.Device.Trace = &TraceOptions{EventBuffer: 1 << 14, OpBuffer: 1 << 12}
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys, vals [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("t:%04d", i)))
		vals = append(vals, bytes.Repeat([]byte{'t'}, 64))
	}
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MultiGet(keys); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"shard0 host"`, `"shard1 host"`, `"shard0 flash dies"`, `"shard1 flash dies"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace export missing %s", want)
		}
	}
	if rep := c.Blame(BlameOptions{Percentile: 90}); rep == nil || rep.TotalOps == 0 {
		t.Fatalf("blame rollup empty: %+v", rep)
	}

	// An untraced cluster refuses the export with the sentinel.
	plain, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.WriteChromeTrace(&bytes.Buffer{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("untraced export: %v", err)
	}
}

// TestClusterStatsConcurrentWithOps drives every shard from its own
// goroutine (the network server's access pattern) while scraping Stats and
// Metadata from observers — the satellite contract that a metrics endpoint
// can watch a live cluster. Run under -race this pins the snapshot-under-
// lock guarantee.
func TestClusterStatsConcurrentWithOps(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Each writer carries a fixed number of operations over a fixed ring of
	// keys routed to "its" shard (so shard engines see one driver each), and
	// the scrapers run until the writers are done. Neither the live data nor
	// the op count depends on how fast the host schedules either side, so
	// the verdict cannot: a slow host only scrapes more often.
	const ringKeys, rounds = 32, 20000
	rings := make([][][]byte, c.Shards())
	for i, filled := 0, 0; filled < len(rings); i++ {
		key := []byte(fmt.Sprintf("conc-%06d", i))
		if g := c.ShardFor(key); len(rings[g]) < ringKeys {
			if rings[g] = append(rings[g], key); len(rings[g]) == ringKeys {
				filled++
			}
		}
	}

	var workers sync.WaitGroup
	for g := range rings {
		workers.Add(1)
		go func(ring [][]byte) {
			defer workers.Done()
			var arrival Time
			for i := 0; i < rounds; i++ {
				key := ring[i%len(ring)]
				arrival = arrival.Add(Duration(1000))
				if _, _, err := c.PutAt(arrival, key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.GetAt(arrival, key); err != nil {
					t.Error(err)
					return
				}
			}
		}(rings[g])
	}
	done := make(chan struct{})
	go func() {
		workers.Wait()
		close(done)
	}()

	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for running := true; running; {
				select {
				case <-done:
					running = false // one last scrape of the quiesced cluster
				default:
				}
				st := c.Stats()
				if st.Shards != 4 || len(st.PerShard) != 4 {
					t.Errorf("bad snapshot: %+v", st)
					return
				}
				var perShard int64
				for _, ss := range st.PerShard {
					perShard += ss.Ops
				}
				if perShard != st.Ops {
					t.Errorf("rollup mismatch: %d != %d", perShard, st.Ops)
					return
				}
				_ = c.Metadata()
				_ = c.Now()
			}
		}()
	}
	scrapers.Wait()
	if got, want := c.Stats().Ops, int64(len(rings)*rounds*2); got != want && !t.Failed() {
		t.Fatalf("recorded %d operations, want %d", got, want)
	}
}

// TestDeviceStatsSnapshotConcurrent reads StatsSnapshot while another
// goroutine writes — the single-device half of the same contract.
func TestDeviceStatsSnapshotConcurrent(t *testing.T) {
	dev, err := Open(Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 500; i++ {
			key := []byte(fmt.Sprintf("snap-%06d", i))
			if _, err := dev.Put(key, bytes.Repeat([]byte("x"), 64)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if last := dev.StatsSnapshot(); last.LiveBytes < 0 || last.DRAMCapacity <= 0 {
			t.Fatalf("implausible snapshot: %+v", last)
		}
	}
	wg.Wait()
	if dev.Now() == 0 {
		t.Fatal("writer made no progress")
	}
}

func TestClusterCacheAndFootprintRollup(t *testing.T) {
	// Uncached cluster: footprint present, cache absent.
	plain, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("uncached cluster reports cache stats")
	}

	opts := smallClusterOpts()
	opts.Device.Cache = &CacheOptions{CapacityBytes: 1 << 20, AdmitAfter: 1}
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys, vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte(fmt.Sprintf("cc-%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('a' + i%26)}, 64))
	}
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Two read rounds: the first admits (AdmitAfter=1), the second hits DRAM.
	for round := 0; round < 2; round++ {
		br, err := c.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		if err := br.FirstErr(); err != nil {
			t.Fatal(err)
		}
	}
	cs, ok := c.CacheStats()
	if !ok || cs.Hits == 0 || cs.Admitted == 0 {
		t.Fatalf("cluster cache rollup = %+v (ok=%v)", cs, ok)
	}
	st := c.Stats()
	if st.Cache == nil {
		t.Fatal("Stats().Cache nil on a cached cluster")
	}
	var perShardHits int64
	for _, ss := range st.PerShard {
		if ss.Cache == nil {
			t.Fatalf("shard %d missing cache stats", ss.Shard)
		}
		perShardHits += ss.Cache.Hits
	}
	if perShardHits != st.Cache.Hits {
		t.Fatalf("per-shard hits %d != rollup %d", perShardHits, st.Cache.Hits)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	fp := c.Footprint()
	if fp.LivePages == 0 || fp.ResidentBytes == 0 {
		t.Fatalf("cluster footprint empty after writes: %+v", fp)
	}
}

// TestClusterReturnedBytesAreCallers: what Get, GetAt, MultiGet and
// ScanShardAt return belongs to the caller — overwrites of the same key and
// enough later writes to the same shard to flush its write buffer leave the
// bytes unchanged.
func TestClusterReturnedBytesAreCallers(t *testing.T) {
	opts := smallClusterOpts()
	opts.Shards = 2
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k, orig := []byte("owned"), []byte("original")
	if _, err := c.Put(k, orig); err != nil {
		t.Fatal(err)
	}
	s := c.ShardFor(k)
	got := map[string][]byte{}
	if got["Get"], _, err = c.Get(k); err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.GetAt(c.ShardNow(s), k)
	if err != nil {
		t.Fatal(err)
	}
	got["GetAt"] = comp.Value
	br, err := c.MultiGet([][]byte{k})
	if err != nil || br.FirstErr() != nil {
		t.Fatal(err, br.FirstErr())
	}
	got["MultiGet"] = br.Completions[0].Value
	sc, err := c.ScanShardAt(s, c.ShardNow(s), k, 1)
	if err != nil || len(sc.Pairs) != 1 {
		t.Fatalf("scan: %v, %d pairs", err, len(sc.Pairs))
	}
	got["ScanShardAt key"], got["ScanShardAt value"] = sc.Pairs[0].Key, sc.Pairs[0].Value

	filler := bytes.Repeat([]byte{'z'}, 4096)
	for i := 0; i < 300; i++ {
		if _, err := c.Put(k, filler[:len(orig)]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put([]byte(fmt.Sprintf("fill:%04d", i)), filler); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.PerShard[s].Flash.TotalWrites() == 0 {
		t.Fatalf("shard %d never flushed its write buffer", s)
	}
	for name, b := range got {
		want := orig
		if name == "ScanShardAt key" {
			want = k
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s returned %q, now %q after later writes", name, want, b)
		}
	}
}

// TestClusterShardIndexOutOfRange: ShardNow and ShardBlame answer 0 and nil
// for a shard index outside [0, Shards()), as ScanShardAt answers an error.
func TestClusterShardIndexOutOfRange(t *testing.T) {
	opts := smallClusterOpts()
	opts.Shards = 2
	opts.Device.Trace = &TraceOptions{}
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	blame := BlameOptions{Percentile: 99, MaxOps: 1}
	if c.ShardNow(1) == 0 || c.ShardBlame(1, blame) == nil {
		t.Fatal("an in-range shard reports no clock or no blame")
	}
	for _, s := range []int{-1, c.Shards()} {
		if now := c.ShardNow(s); now != 0 {
			t.Errorf("ShardNow(%d) = %v, want 0", s, now)
		}
		if rep := c.ShardBlame(s, blame); rep != nil {
			t.Errorf("ShardBlame(%d) = %v, want nil", s, rep)
		}
		if _, err := c.ScanShardAt(s, 0, nil, 1); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("ScanShardAt(%d): %v, want ErrInvalidOptions", s, err)
		}
	}
}
