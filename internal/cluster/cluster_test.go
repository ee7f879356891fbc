package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anykey/internal/cache"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// freshShards builds n small independent AnyKey+ devices.
func freshShards(t *testing.T, n int) []device.KVSSD {
	t.Helper()
	devs := make([]device.KVSSD, 0, n)
	for i := 0; i < n; i++ {
		geo := nand.Geometry{Channels: 4, ChipsPerChannel: 4, BlocksPerChip: 4, PagesPerBlock: 64, PageSize: 8192}
		d, err := core.New(core.Config{Geometry: geo, Plus: true, Seed: int64(1 + i)})
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	return devs
}

func freshCluster(t *testing.T, shards int, cfg Config) *Cluster {
	t.Helper()
	c, err := New(freshShards(t, shards), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	return keys
}

func testValues(n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 64)
	}
	return vals
}

func TestRoutingDeterministicAndTotal(t *testing.T) {
	for _, policy := range []Policy{RouteConsistent, RouteModulo} {
		c := freshCluster(t, 4, Config{Policy: policy})
		keys := testKeys(2000)
		counts := make([]int, c.Shards())
		for _, k := range keys {
			s := c.ShardFor(k)
			if s < 0 || s >= c.Shards() {
				t.Fatalf("%v: shard %d out of range", policy, s)
			}
			if again := c.ShardFor(k); again != s {
				t.Fatalf("%v: key routed to %d then %d", policy, s, again)
			}
			counts[s]++
		}
		// Both policies should spread a uniform keyspace reasonably: no
		// shard empty, no shard over half the keys.
		for s, n := range counts {
			if n == 0 {
				t.Errorf("%v: shard %d received no keys (counts %v)", policy, s, counts)
			}
			if n > len(keys)/2 {
				t.Errorf("%v: shard %d received %d/%d keys", policy, s, n, len(keys))
			}
		}
	}
}

func TestRingStableAcrossInstances(t *testing.T) {
	a := freshCluster(t, 4, Config{})
	b := freshCluster(t, 4, Config{})
	for _, k := range testKeys(500) {
		if a.ShardFor(k) != b.ShardFor(k) {
			t.Fatalf("two identically configured clusters route %q differently", k)
		}
	}
}

func TestMultiPutGetRoundTrip(t *testing.T) {
	c := freshCluster(t, 4, Config{QueueDepth: 8})
	keys, vals := testKeys(256), testValues(256)

	pr, err := c.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if pr.Done < pr.Start || pr.Latency() < 0 {
		t.Fatalf("batch span inverted: start %v done %v", pr.Start, pr.Done)
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
			t.Fatalf("get %q returned wrong value", keys[i])
		}
		if gr.Shards[i] != c.ShardFor(keys[i]) {
			t.Fatalf("completion shard %d != routed shard", gr.Shards[i])
		}
	}
	// Batch Done must be the max of per-op completion times.
	var max sim.Time
	for _, comp := range gr.Completions {
		if comp.Done > max {
			max = comp.Done
		}
	}
	if gr.Done != max {
		t.Fatalf("batch Done %v != max completion %v", gr.Done, max)
	}
}

func TestMultiGetValuesSurviveLaterOps(t *testing.T) {
	c := freshCluster(t, 2, Config{})
	keys, vals := testKeys(64), testValues(64)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the devices so any device-owned buffers get reused…
	if _, err := c.MultiPut(keys, testValues(64)); err != nil {
		t.Fatal(err)
	}
	// …then check the batch's values are still the originals.
	for i := range keys {
		if !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("value %d mutated after later batch", i)
		}
	}
}

func TestMultiGetMissReportsNotFound(t *testing.T) {
	c := freshCluster(t, 4, Config{})
	keys, vals := testKeys(8), testValues(8)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := append([][]byte{}, keys[:4]...)
	probe = append(probe, []byte("absent-1"), []byte("absent-2"))
	gr, err := c.MultiGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if gr.Errs[i] != nil {
			t.Fatalf("present key %d: %v", i, gr.Errs[i])
		}
	}
	for i := 4; i < 6; i++ {
		if !errors.Is(gr.Errs[i], kv.ErrNotFound) {
			t.Fatalf("absent key %d: got %v, want ErrNotFound", i, gr.Errs[i])
		}
		if !errors.Is(gr.Errs[i], ErrNotFound) {
			t.Fatalf("absent key %d: cluster.ErrNotFound mismatch", i)
		}
	}
}

func TestBatchDuplicateKeysLastWriteWins(t *testing.T) {
	c := freshCluster(t, 4, Config{})
	k := []byte("dup-key")
	_, err := c.MultiPut([][]byte{k, k}, [][]byte{[]byte("first"), []byte("second")})
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.GetOneAt(host.WhenFree, k)
	if err != nil {
		t.Fatal(err)
	}
	if string(comp.Value) != "second" {
		t.Fatalf("duplicate key resolved to %q, want later write", comp.Value)
	}
}

func TestMultiDelete(t *testing.T) {
	c := freshCluster(t, 4, Config{})
	keys, vals := testKeys(32), testValues(32)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	dr, err := c.MultiDelete(keys[:16])
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if i < 16 && !errors.Is(gr.Errs[i], ErrNotFound) {
			t.Fatalf("deleted key %d still readable (%v)", i, gr.Errs[i])
		}
		if i >= 16 && gr.Errs[i] != nil {
			t.Fatalf("surviving key %d: %v", i, gr.Errs[i])
		}
	}
}

func TestMultiPutLengthMismatch(t *testing.T) {
	c := freshCluster(t, 2, Config{})
	if _, err := c.MultiPut(testKeys(3), testValues(2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// runWorkload drives a deterministic mixed batch workload and returns a
// transcript of every completion instant and the final merged stats.
func runWorkload(t *testing.T, workers int) (string, Stats) {
	t.Helper()
	c := freshCluster(t, 4, Config{QueueDepth: 16, Workers: workers})
	keys, vals := testKeys(512), testValues(512)
	var sb bytes.Buffer
	for round := 0; round < 4; round++ {
		pr, err := c.MultiPut(keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := c.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "round %d: put [%d,%d] get [%d,%d]\n",
			round, pr.Start, pr.Done, gr.Start, gr.Done)
		for i, comp := range gr.Completions {
			fmt.Fprintf(&sb, "%d:%d:%d ", i, comp.Done, gr.Shards[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String(), c.CollectStats()
}

func TestWorkersBitIdentical(t *testing.T) {
	serial, st1 := runWorkload(t, 1)
	parallel, st4 := runWorkload(t, 4)
	if serial != parallel {
		t.Fatal("Workers=4 produced a different completion transcript than Workers=1")
	}
	if st1.Ops != st4.Ops || st1.Now != st4.Now || st1.LiveKeys != st4.LiveKeys {
		t.Fatalf("stats diverge: %+v vs %+v", st1, st4)
	}
	if st1.Flash != st4.Flash {
		t.Fatal("flash counters diverge between Workers settings")
	}
}

// intLeaves calls fn on every integer field under v — struct fields, embedded
// ones included, array elements and what non-nil pointers point at — with its
// path. Any other kind fails the test: a new field must say how it merges.
func intLeaves(t *testing.T, path string, v reflect.Value, fn func(string, reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			intLeaves(t, path+"."+v.Type().Field(i).Name, v.Field(i), fn)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			intLeaves(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), fn)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			intLeaves(t, path, v.Elem(), fn)
		}
	case reflect.Int, reflect.Int64:
		fn(path, v)
	default:
		t.Fatalf("%s is a %s; teach the rollup tests how it merges", path, v.Kind())
	}
}

// mergeRule is how Rollup.Add combines a field: Now takes the later clock, the
// store mode is a flag (nand's own test covers it), every other field sums.
func mergeRule(path string) string {
	switch path {
	case ".Now":
		return "max"
	case ".Store.Mode":
		return "skip"
	}
	return "sum"
}

// rollupFields returns every integer field of r by path.
func rollupFields(t *testing.T, r Rollup) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	intLeaves(t, "", reflect.ValueOf(r), func(path string, v reflect.Value) { out[path] = v.Int() })
	return out
}

// merged is what Rollup.Add must make of one field's two values.
func merged(path string, a, b int64) int64 {
	if mergeRule(path) == "max" {
		return max(a, b)
	}
	return a + b
}

// checkTotals asserts that a rollup's totals are the merge of its PerShard
// rows, field by field.
func checkTotals(t *testing.T, st Stats) {
	t.Helper()
	want := map[string]int64{}
	for _, ss := range st.PerShard {
		for path, v := range rollupFields(t, ss.Rollup) {
			want[path] = merged(path, want[path], v)
		}
	}
	for path, v := range rollupFields(t, st.Rollup) {
		if mergeRule(path) != "skip" && v != want[path] {
			t.Errorf("total %s = %d, per-shard rows merge to %d", path, v, want[path])
		}
	}
}

// TestRollupAddMergesEveryField gives every integer field of two rollups —
// the device counters, flash causes, store and cache included — a distinct
// value and checks that Add merges each one, so a counter added to any of
// them cannot be silently left out of the cluster totals.
func TestRollupAddMergesEveryField(t *testing.T) {
	a, b := Rollup{Cache: &cache.Stats{}}, Rollup{Cache: &cache.Stats{}}
	next := int64(0)
	for _, r := range []*Rollup{&a, &b} {
		intLeaves(t, "", reflect.ValueOf(r).Elem(), func(_ string, v reflect.Value) {
			next++
			v.SetInt(next)
		})
	}
	sum := a.Add(b)
	if sum.Cache == a.Cache || sum.Cache == b.Cache {
		t.Fatal("Add aliased an operand's cache counters")
	}
	av, bv, sv := rollupFields(t, a), rollupFields(t, b), rollupFields(t, sum)
	for path := range av {
		if want := merged(path, av[path], bv[path]); mergeRule(path) != "skip" && sv[path] != want {
			t.Errorf("Add: %s = %d, want %d", path, sv[path], want)
		}
	}
	if len(av) < 30 {
		t.Fatalf("walked only %d fields", len(av))
	}
}

func TestStatsRollup(t *testing.T) {
	c := freshCluster(t, 4, Config{QueueDepth: 4})
	keys, vals := testKeys(256), testValues(256)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MultiGet(keys); err != nil {
		t.Fatal(err)
	}
	st := c.CollectStats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("shard count wrong: %+v", st)
	}
	if st.Ops != 512 {
		t.Fatalf("ops rollup %d, want 512", st.Ops)
	}
	if st.LiveKeys != 256 {
		t.Fatalf("live keys rollup %d, want 256", st.LiveKeys)
	}
	for _, ss := range st.PerShard {
		if ss.Ops == 0 {
			t.Errorf("shard %d carried no ops", ss.Shard)
		}
	}
	checkTotals(t, st)
	if got := st.QueueWait.Count() + st.Service.Count(); got == 0 {
		t.Fatal("merged breakdown histograms empty")
	}
	if st.ReadAccesses.Count() == 0 {
		t.Fatal("merged read-access histogram empty")
	}

	// One dead and one retired shard: the dead row keeps its op count and
	// clock but loses its device state (the hardware is gone); the retired
	// shard's device is still there and still counted. Overflow every
	// shard's write buffer first (a Sync only journals it) so every shard has
	// flash-resident metadata to report.
	big := make([][]byte, 512)
	for i := range big {
		big[i] = bytes.Repeat([]byte{'x'}, 4096)
	}
	if _, err := c.MultiPut(testKeys(len(big)), big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Shards(); i++ {
		if device.TotalDRAM(c.Shard(i).dev.Metadata()) == 0 {
			t.Fatalf("shard %d never flushed its write buffer", i)
		}
	}
	st = c.CollectStats()
	dead, retired := st.PerShard[1], st.PerShard[2]
	if err := c.Shard(1).Kill(KillGrownBad); err != nil {
		t.Fatal(err)
	}
	if err := c.Shard(1).Kill(KillPowerCut); err == nil {
		t.Fatal("double kill succeeded")
	}
	retire(c.Shard(2))
	after := c.CollectStats()
	if after.Shards != 4 || len(after.PerShard) != 4 {
		t.Fatalf("dead/retired shards dropped from the rollup: %+v", after)
	}
	got := after.PerShard[1]
	if got.State != "dead" || got.Cause != "grown-bad" || got.Ops != dead.Ops || got.Now != dead.Now {
		t.Fatalf("dead row = %+v, want ops/clock of %+v", got, dead)
	}
	if got.LiveKeys != 0 || got.Flash != (nand.Counters{}) || got.Store != (nand.StoreFootprint{}) || got.Cache != nil {
		t.Fatalf("dead row carries device state: %+v", got)
	}
	if got := after.PerShard[2]; got.State != "retired" || got.Cause != "" || got.LiveKeys != retired.LiveKeys || got.Flash != retired.Flash {
		t.Fatalf("retired row = %+v, want device state of %+v", got, retired)
	}
	if after.Ops != st.Ops || after.LiveKeys != st.LiveKeys-dead.LiveKeys {
		t.Fatalf("rollup after kill: ops %d live %d, want %d and %d", after.Ops, after.LiveKeys, st.Ops, st.LiveKeys-dead.LiveKeys)
	}
	checkTotals(t, after)
	if fp := device.FootprintOf(c.Shard(1).dev); fp.ResidentBytes != 0 {
		t.Fatalf("kill left the dead shard's payload store resident: %+v", fp)
	}
	// Metadata skips the dead shard only.
	var live, all int64
	for _, m := range c.Metadata() {
		live += m.Bytes
	}
	for i := 0; i < c.Shards(); i++ {
		if i == 1 {
			continue
		}
		for _, m := range c.Shard(i).dev.Metadata() {
			all += m.Bytes
		}
	}
	if live != all || live == 0 {
		t.Fatalf("Metadata sums %d bytes, the three surviving shards hold %d", live, all)
	}
	if _, err := c.ScanAt(1, after.Now, nil, 4); !errors.Is(err, ErrShardDown) {
		t.Fatalf("scan of a dead shard: %v, want ErrShardDown", err)
	}
	if _, err := c.ScanAt(2, after.Now, nil, 4); err != nil {
		t.Fatalf("scan of a retired shard: %v", err)
	}
	// A routed operation on the dead shard is refused, not run on released
	// hardware.
	for _, k := range keys {
		if c.ShardFor(k) != 1 {
			continue
		}
		if _, s, err := c.GetOneAt(host.WhenFree, k); s != 1 || !errors.Is(err, ErrShardDown) {
			t.Fatalf("routed get on dead shard %d: %v, want ErrShardDown", s, err)
		}
		break
	}
}

// retire marks a shard retired the way the fleet's RemoveShard commit does.
func retire(sh *Shard) { sh.Transition(Writable, ShardRetired) }

func TestClockDomainsIndependent(t *testing.T) {
	c := freshCluster(t, 2, Config{})
	// Route every op to one shard: the other shard's clock must not move.
	k := []byte("pinned")
	target := c.ShardFor(k)
	other := 1 - target
	for i := 0; i < 32; i++ {
		if _, _, err := c.PutOneAt(host.WhenFree, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ShardNow(other); got != 0 {
		t.Fatalf("idle shard's clock advanced to %v", got)
	}
	if c.Now() != c.ShardNow(target) {
		t.Fatal("cluster clock is not the max over shard clocks")
	}
	if c.Now() == 0 {
		t.Fatal("busy shard's clock did not advance")
	}
}

func TestSyncBarrier(t *testing.T) {
	c := freshCluster(t, 4, Config{QueueDepth: 8})
	keys, vals := testKeys(128), testValues(128)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	done, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if done < c.Barrier() {
		t.Fatal("sync completed before the cluster barrier")
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.FirstErr(); err != nil {
		t.Fatal(err)
	}

	// One dead and one retired shard: Sync flushes neither (their op counts
	// and clocks stand still), Barrier still drains the retired one, and
	// the merged instants come from the shards that did take part.
	if err := c.Shard(0).Kill(KillPowerCut); err != nil {
		t.Fatal(err)
	}
	retire(c.Shard(3))
	before := c.CollectStats()
	done, err = c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	after := c.CollectStats()
	var want sim.Time
	for i, row := range after.PerShard {
		skipped := i == 0 || i == 3
		if skipped != (row.Ops == before.PerShard[i].Ops) {
			t.Fatalf("shard %d (%s): ops %d → %d across Sync", i, row.State, before.PerShard[i].Ops, row.Ops)
		}
		if !skipped && row.Now > want {
			want = row.Now
		}
	}
	if done != want {
		t.Fatalf("Sync done %v, want the live shards' max %v", done, want)
	}
	if _, err := c.SyncShards([]int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if got := c.CollectStats(); got.Ops != after.Ops {
		t.Fatalf("SyncShards flushed a dead or retired shard: ops %d → %d", after.Ops, got.Ops)
	}
	var live sim.Time
	for i := 1; i < c.Shards(); i++ {
		if now := c.ShardNow(i); now > live {
			live = now
		}
	}
	if got := c.Barrier(); got != live {
		t.Fatalf("Barrier %v, want the non-dead shards' max %v", got, live)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty device list accepted")
	}
	devs := freshShards(t, 2)
	if _, err := New(devs, Config{Policy: Policy(99)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(devs, Config{Tracers: []*trace.Tracer{nil}}); err == nil {
		t.Fatal("tracer/shard count mismatch accepted")
	}
	if Policy(99).String() == RouteModulo.String() {
		t.Fatal("policy names collide")
	}
}
