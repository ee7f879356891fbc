// Package lsm is the firmware front-end PinK and AnyKey share. The paper's
// comparison is meaningful only because both designs run on the same
// platform and differ in metadata layout, value placement and compaction
// policy (§2.2 vs §4). Everything on the platform side of that line lives
// here, once: the flash array, block pool and DRAM budget, the controller
// CPU, the write buffer with its flush gate and the journal that makes it
// durable on Sync, and the garbage-collection retry loop. A design embeds
// Front and supplies what the paper says differs — how a drained buffer
// becomes levels (Hooks.Flush) and how victim blocks are chosen and
// reclaimed.
package lsm

import (
	"fmt"

	"anykey/internal/device"
	"anykey/internal/dram"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Config is the platform both designs are built on; it is PinK's whole
// configuration and the shared part of AnyKey's.
type Config struct {
	Geometry nand.Geometry
	Timing   nand.Timing

	// DRAMBytes is the device-internal DRAM budget shared by the level
	// lists (pinned), the write buffer (pinned) and the design's remaining
	// metadata (PinK: meta segments; AnyKey: hash lists, best effort).
	DRAMBytes int64

	// MemtableBytes is the L0 flush threshold.
	MemtableBytes int64

	// GrowthFactor is the LSM level size ratio (threshold of Li+1 /
	// threshold of Li).
	GrowthFactor int

	// RequestOverhead models the host-interface and firmware handling cost
	// added to every request.
	RequestOverhead sim.Duration

	// FreeBlockReserve is the number of free blocks below which GC runs.
	FreeBlockReserve int

	// Seed fixes the memtable's skiplist randomness.
	Seed int64

	// BackgroundLag bounds how far background work (flush + compaction
	// completion) may run behind the host clock before writes stall — the
	// depth of the device's internal write queue in time units. Writes wait
	// only for the excess beyond this lag.
	BackgroundLag sim.Duration

	// Memory selects the flash array's payload store: raw full images or the
	// flyweight representation that regenerates workload bytes on demand
	// (nand.MemoryAuto resolves by capacity). The mode is fixed at device
	// creation; a remount keeps the array's existing store.
	Memory nand.MemoryMode

	// Tracer, when non-nil, receives firmware events (CPU occupancy,
	// flush/compaction/GC spans, write stalls).
	Tracer *trace.Tracer
}

// Defaults fills zero fields with the repository defaults (a scaled version
// of the paper's 64 GB / 64 MB device; see DESIGN.md §2). This is the one
// place the platform defaults are written.
func (c *Config) Defaults() {
	if c.Geometry == (nand.Geometry{}) {
		c.Geometry = nand.Geometry{Channels: 8, ChipsPerChannel: 8, BlocksPerChip: 4, PagesPerBlock: 64, PageSize: 8192}
	}
	if c.Timing == (nand.Timing{}) {
		c.Timing = nand.TLCTiming()
	}
	if c.DRAMBytes == 0 {
		c.DRAMBytes = c.Geometry.Capacity() / 1000 // the paper's ≈0.1 % ratio
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = int64(32 * c.Geometry.PageSize)
	}
	if c.GrowthFactor == 0 {
		c.GrowthFactor = 4
	}
	if c.RequestOverhead == 0 {
		c.RequestOverhead = 3 * sim.Microsecond
	}
	if c.FreeBlockReserve == 0 {
		c.FreeBlockReserve = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BackgroundLag == 0 {
		c.BackgroundLag = 50 * sim.Millisecond
	}
}

// The paper's measured controller-CPU overheads on a Cortex-A53 (§4.5):
// 79 ns to hash a 40-byte key, and 118 µs to merge 2×8192 entities — ≈7.2 ns
// per entity. PinK does not hash but pays comparable per-request firmware CPU
// time; charging both designs from the same constants keeps them apart only
// where the paper says they differ.
const (
	HashCost     = 79 * sim.Nanosecond
	MergeCPUCost = 7 * sim.Nanosecond
)

// Hooks is what a design plugs into the front-end. None is on the per-op
// path: Flush runs once per filled buffer (or full journal, see Sync), the
// GC hooks only under space pressure.
type Hooks struct {
	// Flush writes the buffered pairs out through the design's LSM path
	// starting at `at` and returns when that background chain completes. It
	// takes the entries with Drain and, if it fails before they are installed,
	// puts them back with Restore.
	Flush func(at sim.Time) (sim.Time, error)

	// ReclaimEmpty erases every fully dead block (safe at any point: nothing
	// is relocated) and reports whether any was found.
	ReclaimEmpty func(at sim.Time) (sim.Time, bool)

	// GCOnce reclaims the design's best victim block, reporting whether doing
	// so could free anything.
	GCOnce func(at sim.Time) (sim.Time, bool, error)

	// Spill, when non-nil, is consulted before EnsureFree gives up: it
	// releases flash the design pins for its own reasons and reports whether
	// there was any (AnyKey's crash-consistency deferrals).
	Spill func() bool

	// FreeWatermark, when above the reserve, is the free-block count
	// EnsureFree maintains instead (PinK's continuous background GC).
	FreeWatermark int
}

// Front is the state and behaviour common to every LSM KV-SSD firmware in
// this repository. Designs embed it by value.
type Front struct {
	Cfg   Config
	Hooks Hooks

	Arr  *nand.Array
	Pool *ftl.Pool
	Mem  *dram.Budget
	MT   *memtable.Table
	St   *device.Stats
	Tr   *trace.Tracer

	// BgDoneAt is the completion time of the last background chain.
	BgDoneAt sim.Time
	// OpReads counts the flash reads charged to the Get in flight.
	OpReads int

	// Epoch is the design's rebuild clock, if it keeps one (AnyKey: the
	// level-rebuild epoch persisted in group headers). The front-end only
	// stamps it into journal pages for the design's recovery to compare.
	Epoch uint32

	cpu sim.Resource

	// The write-buffer journal (journal.go).
	jAlloc   *ftl.Stream
	jPages   []nand.PPA // live journal pages, in write order
	jSeq     uint64     // sequence number of the next page
	jPayload int        // JournalPayload(page size)
	jArena   *nand.PageArena
	jRecords []byte // Sync's record-stream scratch
	jExtra   []byte // one page's header + part scratch
}

// New builds the front-end: block pool, DRAM budget with the write buffer
// reserved, statistics views and tracer. A nil arr creates the flash array
// from cfg (a fresh device); a remount passes the array that survived the
// power cycle, which keeps the payload store it was created with. cfg must
// already be defaulted; the design sets Hooks before the first operation.
func New(cfg Config, arr *nand.Array) (Front, error) {
	if arr == nil {
		var err error
		if arr, err = nand.New(cfg.Geometry, cfg.Timing); err != nil {
			return Front{}, err
		}
		arr.ConfigureMemory(cfg.Memory)
	}
	pool := ftl.NewPool(arr)
	mem := dram.New(cfg.DRAMBytes)
	mem.MustReserve("memtable", cfg.MemtableBytes)
	st := device.NewStats()
	st.Flash = arr.Counters
	st.DRAMCapacity = mem.Capacity
	st.DRAMUsed = mem.Used
	st.Wear = pool.WearStats
	return Front{
		Cfg:  cfg,
		Arr:  arr,
		Pool: pool,
		Mem:  mem,
		MT:   memtable.New(cfg.Seed),
		St:   st,
		Tr:   cfg.Tracer,

		jAlloc:   ftl.NewStream(pool, ftl.RegionJournal),
		jPayload: JournalPayload(cfg.Geometry.PageSize),
		jArena:   nand.NewPageArena(cfg.Geometry.PageSize, 2, !arr.Retains()),
	}, nil
}

// SetTracer attaches an event tracer for firmware events (nil detaches).
// The flash array's tracer is attached separately via Array().SetTracer.
func (f *Front) SetTracer(tr *trace.Tracer) { f.Tr = tr }

// Stats implements device.KVSSD.
func (f *Front) Stats() *device.Stats { return f.St }

// Array exposes the flash array for the facade, tests and the harness.
func (f *Front) Array() *nand.Array { return f.Arr }

// ReleaseMemory eagerly drops every retained page payload. The device is
// unusable afterwards; callers release only devices they are discarding
// (closed handles, dead fleet shards).
func (f *Front) ReleaseMemory() { f.Arr.Release() }

// Footprint returns the flash payload store's memory accounting.
func (f *Front) Footprint() nand.StoreFootprint { return f.Arr.Footprint() }

// CPUOccupy charges the controller CPU and traces the occupancy span.
func (f *Front) CPUOccupy(at sim.Time, dur sim.Duration, cause trace.Cause) sim.Time {
	start, done := f.cpu.OccupyAt(at, dur)
	if f.Tr != nil {
		f.Tr.Span(trace.CPUTrack, trace.EvCPU, cause, at, start, done, 0)
	}
	return done
}

// Admit charges what every host request pays before the design sees it: the
// interface overhead, then the per-request firmware CPU time.
func (f *Front) Admit(at sim.Time, cause trace.Cause) sim.Time {
	return f.CPUOccupy(at.Add(f.Cfg.RequestOverhead), HashCost, cause)
}

// CheckKV rejects pairs no design can store.
func (f *Front) CheckKV(key, value []byte) error {
	switch {
	case len(key) == 0:
		return kv.ErrEmptyKey
	case len(key) > kv.MaxKeyLen:
		return kv.ErrKeyTooLarge
	case len(value) > kv.MaxValueLen:
		return kv.ErrValueTooLarge
	case len(value) > f.Cfg.Geometry.PageSize/2:
		return fmt.Errorf("%w: value %d exceeds half page size %d",
			kv.ErrValueTooLarge, len(value), f.Cfg.Geometry.PageSize/2)
	}
	return nil
}

// StagePut validates and admits a Put and inserts a private copy of the pair
// into the write buffer. It returns the admission instant and the entry the
// insert replaced, so the design's live-data accounting needs no second
// skiplist search; the design then finishes with FlushGate.
func (f *Front) StagePut(at sim.Time, key, value []byte) (done sim.Time, prev memtable.Entry, had bool, err error) {
	if err := f.CheckKV(key, value); err != nil {
		return at, memtable.Entry{}, false, err
	}
	done = f.Admit(at, trace.CauseHostWrite)
	// One backing allocation for both copies; full slice expressions keep an
	// append to either from reaching the other.
	buf := make([]byte, len(key)+len(value))
	copy(buf, key)
	copy(buf[len(key):], value)
	prev, had = f.MT.Put(buf[:len(key):len(key)], buf[len(key):])
	return done, prev, had, nil
}

// StageDelete is StagePut for a tombstone.
func (f *Front) StageDelete(at sim.Time, key []byte) (done sim.Time, prev memtable.Entry, had bool, err error) {
	if len(key) == 0 {
		return at, memtable.Entry{}, false, kv.ErrEmptyKey
	}
	done = f.Admit(at, trace.CauseHostWrite)
	prev, had = f.MT.Delete(append([]byte(nil), key...))
	return done, prev, had, nil
}

// FlushGate completes a staged write that arrived at `at` and was admitted
// at `done`: when the write buffer is full it starts a flush. Flushes
// pipeline with in-flight compaction up to the device's write queue depth:
// the host stalls only when background work runs more than BackgroundLag
// behind (the chip timelines already enforce bandwidth).
func (f *Front) FlushGate(at, done sim.Time) (sim.Time, error) {
	if f.MT.Bytes() < f.Cfg.MemtableBytes {
		return done, nil
	}
	start := at
	if gate := f.BgDoneAt.Add(-f.Cfg.BackgroundLag); gate.After(start) {
		start = gate
	}
	if f.Tr != nil && start.After(at) {
		f.Tr.Span(trace.BGTrack(trace.CauseWriteStall), trace.EvWriteStall,
			trace.CauseWriteStall, at, at, start, 0)
	}
	if _, err := f.flush(start); err != nil {
		return at, err
	}
	return sim.Max(done, start), nil
}

// BeginGet validates and admits a Get and answers it from the write buffer
// when the key is there (done reports that the returned triple is final).
// Otherwise the design continues from `now` down its levels, counting flash
// reads in OpReads and recording them in St.ReadAccesses when it returns.
func (f *Front) BeginGet(at sim.Time, key []byte) (val []byte, now sim.Time, done bool, err error) {
	if len(key) == 0 {
		return nil, at, true, kv.ErrEmptyKey
	}
	f.OpReads = 0
	now = f.Admit(at, trace.CauseHostRead)
	e, ok := f.MT.Get(key)
	if !ok {
		return nil, now, false, nil
	}
	f.St.ReadAccesses.Record(0)
	if e.Tombstone {
		return nil, now, true, kv.ErrNotFound
	}
	return e.Value, now, true, nil
}

// ScanResult returns the empty result slice of a Scan for up to n pairs. The
// caller's n is a bound, not a size, so the capacity is capped at what the
// device holds: every live key plus every buffered entry.
func (f *Front) ScanResult(n int) []kv.Pair {
	return make([]kv.Pair, 0, min(n, int(f.St.LiveKeys)+f.MT.Len()))
}

// Drain empties the write buffer for a flush and returns what it held, in
// key order.
func (f *Front) Drain() []memtable.Entry {
	entries := f.MT.All()
	f.MT.Reset()
	return entries
}

// Restore puts drained entries back after a failed flush (typically
// ErrDeviceFull): accepted-but-unflushed pairs — tombstones included — must
// still be in the buffer when the caller surfaces the error.
func (f *Front) Restore(entries []memtable.Entry) {
	for i := range entries {
		if entries[i].Tombstone {
			f.MT.Delete(entries[i].Key)
		} else {
			f.MT.Put(entries[i].Key, entries[i].Value)
		}
	}
}

// EnsureFree brings the free-block count to the reserve plus extra (or the
// design's watermark, if higher). Each round must grow the pool: relocating
// live data out of nearly full victims consumes destination blocks, and on a
// truly full device that treadmill makes no net progress — a few stalled
// rounds mean the device is full.
func (f *Front) EnsureFree(at sim.Time, extra int) (sim.Time, error) {
	need := f.Cfg.FreeBlockReserve + extra
	if f.Hooks.FreeWatermark > need {
		need = f.Hooks.FreeWatermark
	}
	spill := func() bool { return f.Hooks.Spill != nil && f.Hooks.Spill() }
	now := at
	stalls := 0
	for f.Pool.FreeBlocks() < need {
		before := f.Pool.FreeBlocks()
		// Retired journal blocks first: they cost an erase and nothing else.
		t, reclaimed := f.reclaimJournal(now)
		now = t
		if f.Pool.FreeBlocks() >= need {
			break
		}
		t, found := f.Hooks.ReclaimEmpty(now)
		now = t
		reclaimed = reclaimed || found
		if f.Pool.FreeBlocks() >= need {
			break
		}
		t, progress, err := f.Hooks.GCOnce(now)
		now = t
		if err != nil {
			return now, err
		}
		if !progress && !reclaimed {
			if spill() {
				continue
			}
			return now, kv.ErrDeviceFull
		}
		if f.Pool.FreeBlocks() <= before {
			stalls++
			if stalls >= 8 {
				if spill() {
					stalls = 0
					continue
				}
				return now, kv.ErrDeviceFull
			}
		} else {
			stalls = 0
		}
	}
	return now, nil
}
