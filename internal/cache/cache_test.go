package cache

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"anykey/internal/device"
	"anykey/internal/kv"
	"anykey/internal/sim"
)

// stubDev is a map-backed KVSSD with a fixed per-op latency, counting calls.
type stubDev struct {
	m          map[string][]byte
	lat        sim.Duration
	gets, puts int
	dels       int
	syncs      int
	scans      int
}

func newStub() *stubDev {
	return &stubDev{m: make(map[string][]byte), lat: 100 * sim.Microsecond}
}

func (s *stubDev) Put(at sim.Time, key, value []byte) (sim.Time, error) {
	s.puts++
	s.m[string(key)] = append([]byte(nil), value...)
	return at.Add(s.lat), nil
}

func (s *stubDev) Delete(at sim.Time, key []byte) (sim.Time, error) {
	s.dels++
	delete(s.m, string(key))
	return at.Add(s.lat), nil
}

func (s *stubDev) Get(at sim.Time, key []byte) ([]byte, sim.Time, error) {
	s.gets++
	v, ok := s.m[string(key)]
	if !ok {
		return nil, at.Add(s.lat), kv.ErrNotFound
	}
	return v, at.Add(s.lat), nil
}

func (s *stubDev) Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error) {
	s.scans++
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []kv.Pair
	for _, k := range keys[:min(n, len(keys))] {
		out = append(out, kv.Pair{Key: []byte(k), Value: s.m[k]})
	}
	return out, at.Add(s.lat), nil
}

func (s *stubDev) Sync(at sim.Time) (sim.Time, error) {
	s.syncs++
	return at.Add(s.lat), nil
}

func (s *stubDev) Stats() *device.Stats             { return device.NewStats() }
func (s *stubDev) Metadata() []device.MetaStructure { return nil }

func TestAdmissionAfterSecondAccess(t *testing.T) {
	dev := newStub()
	c := Wrap(dev, Config{CapacityBytes: 1 << 20})
	key, val := []byte("k1"), []byte("value-one")
	if _, err := dev.Put(0, key, val); err != nil {
		t.Fatal(err)
	}

	// First access: miss, registers in the ghost filter, not admitted.
	if _, _, err := c.Get(0, key); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.Admitted != 0 {
		t.Fatalf("after first access: %+v", st)
	}
	// Second access: miss, crosses the bar, admitted.
	if _, _, err := c.Get(0, key); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Misses != 2 || st.Admitted != 1 || st.Entries != 1 {
		t.Fatalf("after second access: %+v", st)
	}
	// Third access: DRAM hit, no device call, DRAM latency.
	devGets := dev.gets
	v, done, err := c.Get(1000, key)
	if err != nil || !bytes.Equal(v, val) {
		t.Fatalf("hit returned (%q, %v)", v, err)
	}
	if dev.gets != devGets {
		t.Fatal("hit reached the device")
	}
	if done != sim.Time(1000).Add(hitLatency) {
		t.Fatalf("hit latency = %v", done)
	}
	if st := c.CacheStats(); st.Hits != 1 {
		t.Fatalf("hit not counted: %+v", st)
	}
}

func TestGetHitPathDoesNotAllocate(t *testing.T) {
	dev := newStub()
	c := Wrap(dev, Config{CapacityBytes: 1 << 20, AdmitAfter: 1})
	key := []byte("hot-key")
	if _, err := dev.Put(0, key, []byte("hot-value")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(0, key); err != nil { // admit
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := c.Get(0, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GET hit path allocates %v times per op", allocs)
	}
}

func TestWriteThroughRefreshesResidentCopy(t *testing.T) {
	dev := newStub()
	c := Wrap(dev, Config{CapacityBytes: 1 << 20, AdmitAfter: 1})
	key := []byte("k")
	if _, err := c.Put(0, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(0, key); err != nil { // admit v1
		t.Fatal(err)
	}
	// The overwrite goes to the device AND refreshes the cached copy; the
	// caller's buffer is copied, not aliased.
	buf := []byte("v2")
	if _, err := c.Put(0, key, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v, _, err := c.Get(0, key)
	if err != nil || string(v) != "v2" {
		t.Fatalf("after overwrite Get = (%q, %v), want v2", v, err)
	}
	if dev.puts != 2 {
		t.Fatalf("device puts = %d, want 2 (write-through)", dev.puts)
	}
}

func TestDeleteInvalidatesResidentCopy(t *testing.T) {
	dev := newStub()
	c := Wrap(dev, Config{CapacityBytes: 1 << 20, AdmitAfter: 1})
	key := []byte("k")
	if _, err := c.Put(0, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(0, key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(0, key); err != kv.ErrNotFound {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
}

func TestEvictionHonoursBudget(t *testing.T) {
	dev := newStub()
	c := Wrap(dev, Config{CapacityBytes: 400, AdmitAfter: 1})
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		if _, err := dev.Put(0, key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(0, key); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Bytes > 400+200 { // one oversized resident entry is tolerated
		t.Fatalf("resident bytes %d far exceed budget", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
}

// TestSyncAndScanPassThrough pins the write-through cache's Sync and Scan:
// each reaches the device once, issues no write of its own, and leaves the
// resident entries and the counters as they were.
func TestSyncAndScanPassThrough(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *Cache) ([]kv.Pair, error)
		want []kv.Pair
		sync int
		scan int
	}{
		{
			name: "sync",
			op: func(c *Cache) ([]kv.Pair, error) {
				_, err := c.Sync(0)
				return nil, err
			},
			sync: 1,
		},
		{
			name: "scan",
			op: func(c *Cache) ([]kv.Pair, error) {
				ps, _, err := c.Scan(0, []byte("b"), 2)
				return ps, err
			},
			want: []kv.Pair{{Key: []byte("b"), Value: []byte("vb")}, {Key: []byte("c"), Value: []byte("vc")}},
			scan: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := newStub()
			c := Wrap(dev, Config{CapacityBytes: 1 << 20, AdmitAfter: 1})
			for _, k := range []string{"a", "b", "c", "d"} {
				if _, err := c.Put(0, []byte(k), []byte("v"+k)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []string{"a", "c"} { // admit two
				if _, _, err := c.Get(0, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			before, puts, dels := c.CacheStats(), dev.puts, dev.dels
			got, err := tc.op(c)
			if err != nil {
				t.Fatal(err)
			}
			if dev.syncs != tc.sync || dev.scans != tc.scan {
				t.Fatalf("device syncs=%d scans=%d, want %d and %d", dev.syncs, dev.scans, tc.sync, tc.scan)
			}
			if dev.puts != puts || dev.dels != dels {
				t.Fatalf("%s wrote to the device: puts %d→%d dels %d→%d", tc.name, puts, dev.puts, dels, dev.dels)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("pairs = %q, want %q", got, tc.want)
			}
			if after := c.CacheStats(); after != before {
				t.Fatalf("CacheStats changed: %+v → %+v", before, after)
			}
			for _, k := range []string{"a", "c"} {
				if e, ok := c.entries[k]; !ok || string(e.value) != "v"+k {
					t.Fatalf("resident entry %q lost or changed", k)
				}
			}
			if len(c.entries) != 2 {
				t.Fatalf("%d resident entries, want 2", len(c.entries))
			}
		})
	}
}

func TestMetadataReportsCacheTier(t *testing.T) {
	c := Wrap(newStub(), Config{CapacityBytes: 1 << 20, AdmitAfter: 1})
	ms := c.Metadata()
	if len(ms) == 0 || ms[len(ms)-1].Name != "host-cache" || !ms[len(ms)-1].InDRAM {
		t.Fatalf("metadata missing host-cache tier: %+v", ms)
	}
}
