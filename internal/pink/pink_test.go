package pink

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
)

// smallConfig returns a tiny device for fast randomized testing: 512 KiB of
// flash, 1 KiB pages, a 4 KiB memtable.
func smallConfig() Config {
	return Config{
		Geometry:      nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 1024},
		DRAMBytes:     16 << 10,
		MemtableBytes: 4 << 10,
		GrowthFactor:  4,
		Seed:          7,
	}
}

func newSmall(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func val(i, ver int) []byte {
	return []byte(fmt.Sprintf("value-%06d-%04d-%s", i, ver, "xxxxxxxxxxxxxxxxxxxx"))
}

func TestPutGetSimple(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	var err error
	now, err = d.Put(now, key(1), val(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	v, now2, err := d.Get(now, key(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, val(1, 0)) {
		t.Fatalf("Get = %q", v)
	}
	if !now2.After(now) {
		t.Fatal("Get took no simulated time")
	}
	if _, _, err := d.Get(now2, key(2)); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing key: err = %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for ver := 0; ver < 5; ver++ {
		n, err := d.Put(now, key(3), val(3, ver))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	v, now, err := d.Get(now, key(3))
	if err != nil || !bytes.Equal(v, val(3, 4)) {
		t.Fatalf("Get after overwrites = %q, %v", v, err)
	}
	now, err = d.Delete(now, key(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(now, key(3)); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key: err = %v", err)
	}
}

// The core correctness test: thousands of random operations checked against
// a map oracle, across flushes, cascaded compactions and GC.
func TestRandomOpsAgainstOracle(t *testing.T) {
	d := newSmall(t, smallConfig())
	rng := rand.New(rand.NewSource(42))
	oracle := map[string][]byte{}
	var now sim.Time
	const keySpace = 600
	for op := 0; op < 12000; op++ {
		i := rng.Intn(keySpace)
		k := key(i)
		switch r := rng.Float64(); {
		case r < 0.55: // put
			v := val(i, op)
			n, err := d.Put(now, k, v)
			if err != nil {
				t.Fatalf("op %d: Put: %v", op, err)
			}
			now = n
			oracle[string(k)] = v
		case r < 0.65: // delete
			n, err := d.Delete(now, k)
			if err != nil {
				t.Fatalf("op %d: Delete: %v", op, err)
			}
			now = n
			delete(oracle, string(k))
		default: // get
			v, n, err := d.Get(now, k)
			now = n
			want, exists := oracle[string(k)]
			if exists {
				if err != nil {
					t.Fatalf("op %d: Get(%s): %v (want %q)", op, k, err, want)
				}
				if !bytes.Equal(v, want) {
					t.Fatalf("op %d: Get(%s) = %q, want %q", op, k, v, want)
				}
			} else if !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("op %d: Get(%s) = %q, %v; want ErrNotFound", op, k, v, err)
			}
		}
	}
	// Final sweep: every oracle key must be readable.
	for k, want := range oracle {
		v, n, err := d.Get(now, []byte(k))
		now = n
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("final Get(%s) = %q, %v; want %q", k, v, err, want)
		}
	}
	st := d.Stats()
	if st.TreeCompactions == 0 {
		t.Fatal("no compactions occurred; test exercised nothing")
	}
	c := st.Flash()
	if c.TotalWrites() == 0 || c.Writes[nand.CauseFlush] == 0 {
		t.Fatalf("counters implausible: %+v", c)
	}
}

func TestGCOccursUnderChurn(t *testing.T) {
	d := newSmall(t, smallConfig())
	rng := rand.New(rand.NewSource(1))
	var now sim.Time
	// Overwrite a small working set far beyond device capacity to force GC.
	for op := 0; op < 9000; op++ {
		i := rng.Intn(300)
		n, err := d.Put(now, key(i), val(i, op))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		now = n
	}
	if d.Stats().GCRuns == 0 && d.Array().Counters().Erases == 0 {
		t.Fatal("churn produced no GC and no erases")
	}
	// All 300 keys must still be correct (versions checked via last write).
	// Re-write once more to fix known versions, then verify.
	for i := 0; i < 300; i++ {
		n, err := d.Put(now, key(i), val(i, 99999))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	for i := 0; i < 300; i++ {
		v, n, err := d.Get(now, key(i))
		now = n
		if err != nil || !bytes.Equal(v, val(i, 99999)) {
			t.Fatalf("key %d after GC churn: %q, %v", i, v, err)
		}
	}
}

func TestDeviceFillsToFull(t *testing.T) {
	d := newSmall(t, smallConfig())
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
	// A filled device must still serve reads for early keys.
	if _, _, err := d.Get(now, key(0)); err != nil {
		t.Fatalf("Get on full device: %v", err)
	}
}

func TestScanMatchesOracle(t *testing.T) {
	d := newSmall(t, smallConfig())
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
	if pairs, _, err := d.Scan(now, key(0), 0); err != nil || pairs != nil {
		t.Fatal("Scan with n=0 should return nothing")
	}
}

func TestMetadataReport(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAMBytes = 8 << 10 // tiny: most meta segments must go to flash
	d := newSmall(t, cfg)
	var now sim.Time
	for i := 0; i < 2500; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	ms := d.Metadata()
	if len(ms) != 3 {
		t.Fatalf("metadata rows: %d", len(ms))
	}
	if device.TotalFlash(ms) == 0 {
		t.Fatalf("tiny DRAM but no flash-resident meta segments: %+v", ms)
	}
	if device.TotalDRAM(ms) == 0 {
		t.Fatalf("no DRAM-resident metadata at all: %+v", ms)
	}
	// Flash-resident meta must force multi-access reads.
	for i := 0; i < 200; i++ {
		_, n, err := d.Get(now, key(i))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	h := d.Stats().ReadAccesses
	multi := 0.0
	for v := 2; v <= 8; v++ {
		multi += h.Frac(v)
	}
	if multi == 0 {
		t.Fatalf("no multi-access reads despite flash meta: %v", h)
	}
}

func TestDRAMBudgetNeverExceededByReservations(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for i := 0; i < 3000; i++ {
		n, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	st := d.Stats()
	if st.DRAMUsed() > st.DRAMCapacity() {
		t.Fatalf("DRAM overcommitted: %d > %d", st.DRAMUsed(), st.DRAMCapacity())
	}
}

func TestLatencyMonotone(t *testing.T) {
	d := newSmall(t, smallConfig())
	var now sim.Time
	for i := 0; i < 2000; i++ {
		n, err := d.Put(now, key(i%100), val(i, i))
		if err != nil {
			t.Fatal(err)
		}
		if n.Before(now) {
			t.Fatalf("op %d completed before it was issued", i)
		}
		now = n
	}
}

// Regression: a flush that dies with ErrDeviceFull must not lose pairs that
// were accepted earlier — every successful Put stays readable.
func TestNoLossAtDeviceFull(t *testing.T) {
	d := newSmall(t, smallConfig())
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
}
