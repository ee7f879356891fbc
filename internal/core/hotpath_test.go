package core

import (
	"testing"

	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/xxhash"
)

// fillSteady loads a device with n keys and drains the memtable, so every
// subsequent Get resolves through the on-flash read path (level-list walk,
// hash list, group search, value-log read) rather than the write buffer. The
// drain is the design's own flush: a Sync would journal the buffer and leave
// the keys in it.
func fillSteady(tb testing.TB, cfg Config, n int) (*Device, sim.Time) {
	tb.Helper()
	d, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var now sim.Time
	for i := 0; i < n; i++ {
		t, err := d.Put(now, key(i), val(i, 0))
		if err != nil {
			tb.Fatal(err)
		}
		now = t
	}
	t, err := d.flush(now)
	if err != nil {
		tb.Fatal(err)
	}
	if d.MT.Len() != 0 {
		tb.Fatal("drain left entries in the write buffer")
	}
	return d, t
}

// TestGetZeroAllocSteadyState is the allocation budget for the read path:
// after warm-up, a GET that resolves through groups and the value log must
// allocate nothing — probes decode hashes in place, values alias flash page
// images, and timeline scheduling reuses pruned interval capacity.
func TestGetZeroAllocSteadyState(t *testing.T) {
	const n = 512
	d, now := fillSteady(t, smallConfig(), n)

	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	// Warm-up: size every timeline and touch every group once.
	for _, k := range keys {
		v, t2, err := d.Get(now, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) == 0 {
			t.Fatal("empty value")
		}
		now = t2
	}

	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		v, t2, err := d.Get(now, keys[i%n])
		if err != nil || len(v) == 0 {
			panic("steady-state Get failed")
		}
		now = t2
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get allocates %.2f objects/op, want 0", allocs)
	}
}

// TestMergeZeroAllocPerEntity is the allocation budget for compaction's
// merge: once the reusable output scratch has grown to the run size, merging
// two key-sorted runs must not allocate per entity (or at all).
func TestMergeZeroAllocPerEntity(t *testing.T) {
	d := newSmall(t, smallConfig())

	mk := func(start, step, n int) []kv.Entity {
		ents := make([]kv.Entity, 0, n)
		for i := 0; i < n; i++ {
			k := key(start + i*step)
			ents = append(ents, kv.Entity{Key: k, Hash: xxhash.Sum32(k), Value: val(start+i*step, 0)})
		}
		return ents
	}
	newer := mk(0, 2, 256)                  // even ids
	older := mk(1, 2, 256)                  // odd ids: disjoint keys, so no log invalidations
	d.mergeEntities(newer, older, 1, false) // grow the scratch once

	allocs := testing.AllocsPerRun(100, func() {
		out := d.mergeEntities(newer, older, 1, false)
		if len(out) != len(newer)+len(older) {
			panic("merge dropped entities")
		}
	})
	if allocs != 0 {
		t.Fatalf("merge allocates %.2f objects/run, want 0", allocs)
	}
}

// BenchmarkHotPathGet measures the device-level read path in isolation:
// memtable miss, group search via hash prefixes, and a value-log read.
func BenchmarkHotPathGet(b *testing.B) {
	const n = 512
	d, now := fillSteady(b, smallConfig(), n)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, k := range keys {
		v, t2, err := d.Get(now, k)
		if err != nil || len(v) == 0 {
			b.Fatal("warm-up Get failed")
		}
		now = t2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, t2, err := d.Get(now, keys[i%n])
		if err != nil || len(v) == 0 {
			b.Fatal("Get failed")
		}
		now = t2
	}
}

// BenchmarkHotPathPut measures the device-level write path: memtable
// insert, and amortised over many ops the flush/value-log-append/compaction
// machinery.
func BenchmarkHotPathPut(b *testing.B) {
	const n = 512
	d, now := fillSteady(b, smallConfig(), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % n
		t2, err := d.Put(now, key(id), val(id, 1+i/n))
		if err != nil {
			b.Fatal(err)
		}
		now = t2
	}
}

// BenchmarkHotPathMerge measures the compaction merge loop alone.
func BenchmarkHotPathMerge(b *testing.B) {
	d := newSmall(b, smallConfig())
	mk := func(start, step, n int) []kv.Entity {
		ents := make([]kv.Entity, 0, n)
		for i := 0; i < n; i++ {
			k := key(start + i*step)
			ents = append(ents, kv.Entity{Key: k, Hash: xxhash.Sum32(k), Value: val(start+i*step, 0)})
		}
		return ents
	}
	newer := mk(0, 2, 4096)
	older := mk(1, 2, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := d.mergeEntities(newer, older, 1, false); len(out) != len(newer)+len(older) {
			b.Fatal("merge dropped entities")
		}
	}
}
