package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"anykey/internal/device"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/xxhash"
)

// smallConfig returns a tiny device for fast randomized testing: 512 KiB of
// flash, 1 KiB pages, 4-page groups, a 4 KiB memtable.
func smallConfig() Config {
	return Config{
		Geometry:      nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 1024},
		DRAMBytes:     16 << 10,
		MemtableBytes: 4 << 10,
		GrowthFactor:  4,
		GroupPages:    4,
		LogFraction:   0.15,
		Seed:          7,
	}
}

func newSmall(t testing.TB, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func val(i, ver int) []byte {
	return []byte(fmt.Sprintf("value-%06d-%06d-%s", i, ver, "xxxxxxxxxxxxxxxx"))
}

// variants runs a subtest for AnyKey, AnyKey+ and AnyKey−.
func variants(t *testing.T, fn func(t *testing.T, cfg Config)) {
	t.Run("AnyKey", func(t *testing.T) { fn(t, smallConfig()) })
	t.Run("AnyKeyPlus", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Plus = true
		fn(t, cfg)
	})
	t.Run("AnyKeyMinus", func(t *testing.T) {
		cfg := smallConfig()
		cfg.NoValueLog = true
		fn(t, cfg)
	})
}

func TestPutGetSimple(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		now, err := d.Put(0, key(1), val(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		v, now2, err := d.Get(now, key(1))
		if err != nil || !bytes.Equal(v, val(1, 0)) {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if !now2.After(now) {
			t.Fatal("Get took no simulated time")
		}
		if _, _, err := d.Get(now2, key(2)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestRandomOpsAgainstOracle(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		rng := rand.New(rand.NewSource(42))
		oracle := map[string][]byte{}
		var now sim.Time
		const keySpace = 600
		for op := 0; op < 12000; op++ {
			i := rng.Intn(keySpace)
			k := key(i)
			switch r := rng.Float64(); {
			case r < 0.55:
				v := val(i, op)
				n, err := d.Put(now, k, v)
				if err != nil {
					t.Fatalf("op %d: Put: %v", op, err)
				}
				now = n
				oracle[string(k)] = v
			case r < 0.65:
				n, err := d.Delete(now, k)
				if err != nil {
					t.Fatalf("op %d: Delete: %v", op, err)
				}
				now = n
				delete(oracle, string(k))
			default:
				v, n, err := d.Get(now, k)
				now = n
				want, exists := oracle[string(k)]
				if exists {
					if err != nil || !bytes.Equal(v, want) {
						t.Fatalf("op %d: Get(%s) = %q, %v; want %q", op, k, v, err, want)
					}
				} else if !errors.Is(err, kv.ErrNotFound) {
					t.Fatalf("op %d: Get(%s) = %q, %v; want ErrNotFound", op, k, v, err)
				}
			}
		}
		for k, want := range oracle {
			v, n, err := d.Get(now, []byte(k))
			now = n
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("final Get(%s) = %q, %v; want %q", k, v, err, want)
			}
		}
		if d.St.TreeCompactions == 0 {
			t.Fatal("no compactions occurred")
		}
	})
}

func TestLogCompactionTriggers(t *testing.T) {
	cfg := smallConfig()
	cfg.LogFraction = 0.05 // tiny log: 2-3 blocks, fills fast
	d := newSmall(t, cfg)
	rng := rand.New(rand.NewSource(3))
	var now sim.Time
	for op := 0; op < 6000; op++ {
		i := rng.Intn(400)
		n, err := d.Put(now, key(i), val(i, op))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		now = n
	}
	if d.St.LogCompactions == 0 {
		t.Fatal("tiny value log never triggered a log compaction")
	}
}

func TestPlusReducesChains(t *testing.T) {
	run := func(plus bool) (chains, pageWrites int64) {
		cfg := smallConfig()
		cfg.Plus = plus
		cfg.LogFraction = 0.08
		d, err := New(cfg)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(11))
		var now sim.Time
		for op := 0; op < 15000; op++ {
			i := rng.Intn(500)
			n, err := d.Put(now, key(i), val(i, op))
			if err != nil {
				panic(err)
			}
			now = n
		}
		c := d.Arr.Counters()
		return d.St.ChainedCompactions, c.TotalWrites()
	}
	baseChains, _ := run(false)
	plusChains, _ := run(true)
	if plusChains > baseChains {
		t.Fatalf("AnyKey+ chains (%d) exceed base AnyKey (%d)", plusChains, baseChains)
	}
}

func TestGCStaysNearZero(t *testing.T) {
	// The design claim of §4.4: victim blocks are almost always fully
	// invalid, so GC relocates (almost) nothing.
	d := newSmall(t, smallConfig())
	rng := rand.New(rand.NewSource(1))
	var now sim.Time
	for op := 0; op < 12000; op++ {
		i := rng.Intn(300)
		n, err := d.Put(now, key(i), val(i, op))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		now = n
	}
	c := d.Arr.Counters()
	if c.Erases == 0 {
		t.Fatal("churn produced no erases")
	}
	gcShare := float64(c.Writes[nand.CauseGC]) / float64(c.TotalWrites())
	if gcShare > 0.25 {
		t.Fatalf("GC writes are %.1f%% of all writes; AnyKey GC should be small", gcShare*100)
	}
}

func TestDeviceFillsToFull(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		var now sim.Time
		var err error
		inserted := 0
		for i := 0; i < 100000; i++ {
			now, err = d.Put(now, key(i), val(i, 0))
			if err != nil {
				if !errors.Is(err, kv.ErrDeviceFull) {
					t.Fatalf("unexpected error at %d: %v", i, err)
				}
				break
			}
			inserted++
		}
		if inserted == 0 || inserted == 100000 {
			t.Fatalf("inserted %d pairs; expected the 512 KiB device to fill", inserted)
		}
		if _, _, err := d.Get(now, key(0)); err != nil {
			t.Fatalf("Get on full device: %v", err)
		}
	})
}

func TestScanMatchesOracle(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		rng := rand.New(rand.NewSource(5))
		oracle := map[string][]byte{}
		var now sim.Time
		for op := 0; op < 4000; op++ {
			i := rng.Intn(400)
			k := key(i)
			if rng.Float64() < 0.1 {
				n, _ := d.Delete(now, k)
				now = n
				delete(oracle, string(k))
				continue
			}
			v := val(i, op)
			n, err := d.Put(now, k, v)
			if err != nil {
				t.Fatal(err)
			}
			now = n
			oracle[string(k)] = v
		}
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		for _, startIdx := range []int{0, 13, 200, 399} {
			start := key(startIdx)
			wantIdx := sort.SearchStrings(keys, string(start))
			for _, n := range []int{1, 7, 50} {
				pairs, t2, err := d.Scan(now, start, n)
				now = t2
				if err != nil {
					t.Fatal(err)
				}
				wantN := n
				if rem := len(keys) - wantIdx; rem < wantN {
					wantN = rem
				}
				if len(pairs) != wantN {
					t.Fatalf("Scan(%s, %d) returned %d pairs, want %d", start, n, len(pairs), wantN)
				}
				for i, p := range pairs {
					wk := keys[wantIdx+i]
					if string(p.Key) != wk || !bytes.Equal(p.Value, oracle[wk]) {
						t.Fatalf("Scan pair %d = %q, want %q", i, p.Key, wk)
					}
				}
			}
		}
	})
}

func TestMetadataAlwaysDRAMResident(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for i := 0; i < 3000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	ms := d.Metadata()
	if device.TotalFlash(ms) != 0 {
		t.Fatalf("AnyKey put metadata in flash: %+v", ms)
	}
	if device.TotalDRAM(ms) == 0 {
		t.Fatal("no metadata at all")
	}
	if d.Mem.Used() > d.Mem.Capacity() {
		t.Fatalf("DRAM overcommitted: %v", d.Mem)
	}
}

func TestHashListsDropUnderPressure(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAMBytes = 6 << 10 // barely above the 4 KiB memtable pin
	d := newSmall(t, cfg)
	var now sim.Time
	for i := 0; i < 3000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	// With so little DRAM some groups must run without hash lists, yet all
	// reads stay correct.
	withList, without := 0, 0
	for _, lv := range d.levels {
		for _, g := range lv.groups {
			if g.hashes != nil {
				withList++
			} else {
				without++
			}
		}
	}
	if without == 0 {
		t.Fatalf("expected dropped hash lists under 6 KiB DRAM (with=%d)", withList)
	}
	for i := 0; i < 500; i++ {
		if _, n, err := d.Get(now, key(i)); err != nil {
			t.Fatalf("Get(%d) after hash-list drops: %v", i, err)
		} else {
			now = n
		}
	}
}

func TestHashListsSkipFlashReads(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for i := 0; i < 2000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	// Reads of present keys: mostly ≤ 2 flash accesses (entity + maybe log).
	for i := 0; i < 300; i++ {
		_, n, err := d.Get(now, key(i))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	h := d.St.ReadAccesses
	heavy := 0.0
	for v := 4; v <= 8; v++ {
		heavy += h.Frac(v)
	}
	if heavy > 0.05 {
		t.Fatalf("%.1f%% of reads took ≥4 flash accesses: %v", heavy*100, h)
	}
}

func TestLiveAccounting(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for i := 0; i < 100; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	if d.St.LiveKeys != 100 {
		t.Fatalf("LiveKeys = %d", d.St.LiveKeys)
	}
	// Overwrites must not change the count.
	for i := 0; i < 50; i++ {
		n, _ := d.Put(now, key(i), val(i, 1))
		now = n
	}
	if d.St.LiveKeys != 100 {
		t.Fatalf("LiveKeys after overwrites = %d", d.St.LiveKeys)
	}
	for i := 0; i < 30; i++ {
		n, _ := d.Delete(now, key(i))
		now = n
	}
	if d.St.LiveKeys != 70 {
		t.Fatalf("LiveKeys after deletes = %d", d.St.LiveKeys)
	}
	if d.St.LiveBytes <= 0 {
		t.Fatalf("LiveBytes = %d", d.St.LiveBytes)
	}
}

func TestVlogAccountingInvariant(t *testing.T) {
	d := newSmall(t, smallConfig())
	rng := rand.New(rand.NewSource(8))
	var now sim.Time
	for op := 0; op < 8000; op++ {
		i := rng.Intn(300)
		n, err := d.Put(now, key(i), val(i, op))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	// Sum of per-level logValid must equal the vlog's total page-valid
	// bytes minus what pending (memtable) entities do not yet reference...
	// All log bytes are referenced by installed groups or died: totals match.
	var levelLog int64
	for _, lv := range d.levels {
		levelLog += lv.logValid()
	}
	var vlogBytes int64
	for _, b := range d.vlog.pageValid {
		vlogBytes += b
	}
	if levelLog != vlogBytes {
		t.Fatalf("level logValid sum %d != vlog valid bytes %d", levelLog, vlogBytes)
	}
}

// Regression: a flush that dies with ErrDeviceFull must not lose pairs that
// were accepted earlier — every successful Put stays readable.
func TestNoLossAtDeviceFull(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		var now sim.Time
		var err error
		accepted := 0
		for i := 0; i < 100000; i++ {
			now, err = d.Put(now, key(i), val(i, 0))
			if err != nil {
				break
			}
			accepted++
		}
		if !errors.Is(err, kv.ErrDeviceFull) {
			t.Fatalf("expected device full, got %v", err)
		}
		for i := 0; i < accepted; i++ {
			v, n, err := d.Get(now, key(i))
			now = n
			if err != nil || !bytes.Equal(v, val(i, 0)) {
				t.Fatalf("key %d lost after device-full (accepted %d): %v", i, accepted, err)
			}
		}
	})
}

// Force real xxHash32 collisions through the device: generate keys until two
// share a full 32-bit hash, store distinct values under both, and verify
// both resolve correctly through the hash-sorted group search (collision
// bits path, Fig. 7).
func TestHashCollisionKeysResolve(t *testing.T) {
	seen := map[uint32]string{}
	var pairs [][2]string
	for i := 0; len(pairs) < 3 && i < 300000; i++ {
		k := fmt.Sprintf("%d-col", i*7919)
		h := xxhash.Sum32([]byte(k))
		if prev, ok := seen[h]; ok {
			pairs = append(pairs, [2]string{prev, k})
			continue
		}
		seen[h] = k
	}
	if len(pairs) == 0 {
		t.Fatal("no 32-bit collisions found in the search budget")
	}
	d := newSmall(t, smallConfig())
	var now sim.Time
	// Surround with enough filler to push everything through compaction.
	for i := 0; i < 1000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	for pi, p := range pairs {
		for side := 0; side < 2; side++ {
			n, err := d.Put(now, []byte(p[side]), []byte(fmt.Sprintf("cval-%d-%d", pi, side)))
			if err != nil {
				t.Fatal(err)
			}
			now = n
		}
	}
	for i := 1000; i < 2000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	for pi, p := range pairs {
		for side := 0; side < 2; side++ {
			v, n, err := d.Get(now, []byte(p[side]))
			now = n
			want := fmt.Sprintf("cval-%d-%d", pi, side)
			if err != nil || string(v) != want {
				t.Fatalf("colliding key %q: got %q, %v; want %q", p[side], v, err, want)
			}
		}
	}
}

// checkInvariants validates the device's cross-structure bookkeeping:
// levels sorted and disjoint, level byte sums, DRAM ledger consistency,
// block-index agreement, and log liveness accounting.
func checkInvariants(t *testing.T, d *Device) {
	t.Helper()
	var levelEntryBytes, hashListBytes int64
	groupCount := 0
	for li, lv := range d.levels {
		var phys int64
		for gi, g := range lv.groups {
			groupCount++
			phys += g.physBytes
			levelEntryBytes += g.entryBytes()
			hashListBytes += g.hashListBytes()
			if gi > 0 {
				prev := lv.groups[gi-1]
				if kv.Compare(prev.smallest, g.smallest) >= 0 {
					t.Fatalf("L%d groups not sorted at %d", li+1, gi)
				}
			}
			// Every page of the group must be valid in the pool and the
			// block index must know the group.
			found := false
			for _, og := range d.groupsAt[d.Arr.BlockOf(g.firstPPA)] {
				if og == g {
					found = true
				}
			}
			if !found {
				t.Fatalf("L%d group %d missing from block index", li+1, gi)
			}
			for p := 0; p < g.numPages; p++ {
				if !d.Pool.Valid(g.firstPPA + nand.PPA(p)) {
					t.Fatalf("L%d group %d page %d not valid in pool", li+1, gi, p)
				}
			}
		}
		if phys != lv.bytes {
			t.Fatalf("L%d bytes %d != sum of groups %d", li+1, lv.bytes, phys)
		}
	}
	// Block index must not reference groups outside levels.
	indexed := 0
	for _, gs := range d.groupsAt {
		indexed += len(gs)
	}
	if indexed != groupCount {
		t.Fatalf("block index holds %d groups, levels hold %d", indexed, groupCount)
	}
	// DRAM ledger: pinned memtable + exact level-list and hash-list charges.
	if got := d.Mem.ClientUsed(dramLevelLabel); got != levelEntryBytes {
		t.Fatalf("level-list DRAM charge %d != computed %d", got, levelEntryBytes)
	}
	if got := d.Mem.ClientUsed(dramHashLabel); got != hashListBytes {
		t.Fatalf("hash-list DRAM charge %d != computed %d", got, hashListBytes)
	}
	// Log accounting: per-level valid log bytes must equal the log's total.
	if d.vlog != nil {
		var fromLevels, fromPages int64
		for _, lv := range d.levels {
			fromLevels += lv.logValid()
		}
		for _, b := range d.vlog.pageValid {
			fromPages += b
		}
		if fromLevels != fromPages {
			t.Fatalf("log liveness: levels say %d, pages say %d", fromLevels, fromPages)
		}
	}
}

// Churn with periodic full invariant validation.
func TestInvariantsUnderChurn(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		d := newSmall(t, cfg)
		rng := rand.New(rand.NewSource(13))
		var now sim.Time
		for op := 0; op < 10000; op++ {
			i := rng.Intn(400)
			var err error
			if rng.Float64() < 0.08 {
				now, err = d.Delete(now, key(i))
			} else {
				now, err = d.Put(now, key(i), val(i, op))
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if op%1000 == 999 {
				checkInvariants(t, d)
			}
		}
		checkInvariants(t, d)
	})
}
