package lsm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/pink"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

func smallConfig() lsm.Config {
	cfg := lsm.Config{
		Geometry:      nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 1024},
		DRAMBytes:     16 << 10,
		MemtableBytes: 4 << 10,
		Seed:          7,
	}
	cfg.Defaults()
	return cfg
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%s", i, "xxxxxxxxxxxxxxxx")) }

// everyDesign runs fn against a fresh small device of each of the four
// designs.
func everyDesign(t *testing.T, fn func(t *testing.T, d device.KVSSD)) {
	p := smallConfig()
	anykey := func(plus, noLog bool) func() (device.KVSSD, error) {
		return func() (device.KVSSD, error) {
			return core.New(core.Config{Geometry: p.Geometry, DRAMBytes: p.DRAMBytes, MemtableBytes: p.MemtableBytes,
				GroupPages: 4, LogFraction: 0.15, Seed: p.Seed, Plus: plus, NoValueLog: noLog})
		}
	}
	designs := []struct {
		name string
		open func() (device.KVSSD, error)
	}{
		{"PinK", func() (device.KVSSD, error) { return pink.New(p) }},
		{"AnyKey", anykey(false, false)},
		{"AnyKeyPlus", anykey(true, false)},
		{"AnyKeyMinus", anykey(false, true)},
	}
	for _, design := range designs {
		t.Run(design.name, func(t *testing.T) {
			d, err := design.open()
			if err != nil {
				t.Fatal(err)
			}
			fn(t, d)
		})
	}
}

// TestInputValidation: every design rejects the same malformed requests,
// because the check is the front-end's.
func TestInputValidation(t *testing.T) {
	everyDesign(t, func(t *testing.T, d device.KVSSD) {
		if _, err := d.Put(0, nil, []byte("v")); !errors.Is(err, kv.ErrEmptyKey) {
			t.Fatalf("empty key put: %v", err)
		}
		if _, _, err := d.Get(0, nil); !errors.Is(err, kv.ErrEmptyKey) {
			t.Fatalf("empty key get: %v", err)
		}
		if _, err := d.Delete(0, nil); !errors.Is(err, kv.ErrEmptyKey) {
			t.Fatalf("empty key delete: %v", err)
		}
		big := make([]byte, 600) // more than half the 1 KiB page
		if _, err := d.Put(0, key(1), big); !errors.Is(err, kv.ErrValueTooLarge) {
			t.Fatalf("oversized value: %v", err)
		}
		if _, err := d.Put(0, make([]byte, kv.MaxKeyLen+1), []byte("v")); !errors.Is(err, kv.ErrKeyTooLarge) {
			t.Fatalf("oversized key: %v", err)
		}
	})
}

// One Sync path for all four designs: a small sync is one journal program,
// no compaction, and the pair is still served afterwards.
func TestSyncJournalsOnEveryDesign(t *testing.T) {
	everyDesign(t, func(t *testing.T, d device.KVSSD) {
		now, err := d.Put(0, key(1), val(1))
		if err != nil {
			t.Fatal(err)
		}
		if now, err = d.Sync(now); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if fc := st.Flash(); st.Syncs != 1 || st.JournalPages != 1 || st.SyncFlushes != 0 || st.TreeCompactions != 0 ||
			fc.TotalWrites() != 1 || fc.TotalReads() != 0 {
			t.Fatalf("sync: %d syncs, %d journal pages, %d sync flushes, %d compactions, flash %+v",
				st.Syncs, st.JournalPages, st.SyncFlushes, st.TreeCompactions, fc)
		}
		if v, _, err := d.Get(now, key(1)); err != nil || !bytes.Equal(v, val(1)) {
			t.Fatalf("Get after Sync = %q, %v", v, err)
		}
	})
}

// fakeDesign is a front-end with no LSM behind it: flush is whatever the
// test says, and GC never finds anything.
type fakeDesign struct {
	lsm.Front
	flushes []sim.Time // the start instant of every Flush call
	flush   func(at sim.Time) (sim.Time, error)
}

func newFake(t *testing.T, cfg lsm.Config) *fakeDesign {
	t.Helper()
	front, err := lsm.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDesign{Front: front}
	d.Hooks = lsm.Hooks{
		Flush: func(at sim.Time) (sim.Time, error) {
			d.flushes = append(d.flushes, at)
			return d.flush(at)
		},
		ReclaimEmpty: func(at sim.Time) (sim.Time, bool) { return at, false },
		GCOnce:       func(at sim.Time) (sim.Time, bool, error) { return at, false, nil },
	}
	return d
}

// put and del drive the staging half of a write the way a design does.
func (d *fakeDesign) put(at sim.Time, k, v []byte) (sim.Time, error) {
	done, _, _, err := d.StagePut(at, k, v)
	if err != nil {
		return at, err
	}
	return d.FlushGate(at, done)
}

func (d *fakeDesign) del(at sim.Time, k []byte) (sim.Time, error) {
	done, _, _, err := d.StageDelete(at, k)
	if err != nil {
		return at, err
	}
	return d.FlushGate(at, done)
}

// A flush that fails after draining must leave every accepted entry —
// tombstones included — in the write buffer.
func TestFailedFlushRestoresEveryEntry(t *testing.T) {
	d := newFake(t, smallConfig())
	d.flush = func(at sim.Time) (sim.Time, error) {
		entries := d.Drain()
		if d.MT.Len() != 0 {
			t.Fatalf("Drain left %d entries behind", d.MT.Len())
		}
		d.Restore(entries)
		return at, kv.ErrDeviceFull
	}

	type staged struct {
		value []byte
		tomb  bool
	}
	want := map[string]staged{}
	var now sim.Time
	var err error
	for i := 0; err == nil; i++ {
		if i > 10000 {
			t.Fatal("write buffer never filled")
		}
		if i%3 == 2 {
			want[string(key(i))] = staged{tomb: true}
			now, err = d.del(now, key(i))
		} else {
			want[string(key(i))] = staged{value: val(i)}
			now, err = d.put(now, key(i), val(i))
		}
	}
	if !errors.Is(err, kv.ErrDeviceFull) {
		t.Fatalf("flush failure surfaced as %v", err)
	}
	if len(d.flushes) != 1 {
		t.Fatalf("%d flushes, want 1", len(d.flushes))
	}
	if d.MT.Len() != len(want) {
		t.Fatalf("buffer holds %d entries after the failed flush, want %d", d.MT.Len(), len(want))
	}
	for k, w := range want {
		e, ok := d.MT.Get([]byte(k))
		if !ok || e.Tombstone != w.tomb || !bytes.Equal(e.Value, w.value) {
			t.Fatalf("%s: buffer has %+v (present %v), want %+v", k, e, ok, w)
		}
	}
	if d.BgDoneAt != 0 {
		t.Fatalf("failed flush moved BgDoneAt to %v", d.BgDoneAt)
	}
}

// fill stages writes until the next one would reach the flush threshold.
func fill(t *testing.T, d *fakeDesign, at sim.Time) {
	t.Helper()
	pair := int64(len(key(0)) + len(val(0)))
	for i := 0; d.MT.Bytes()+2*pair < d.Cfg.MemtableBytes; i++ {
		if _, err := d.put(at, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.flushes) != 0 {
		t.Fatal("fill triggered a flush")
	}
}

func writeStalls(tr *trace.Tracer) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events() {
		if e.Name == trace.EvWriteStall {
			out = append(out, e)
		}
	}
	return out
}

// The flush gate lets a flush start while earlier background work is still
// in flight, and stalls the host only for the part of that work beyond
// BackgroundLag — emitting one write-stall span exactly when it does.
func TestFlushGateStallsOnlyForExcessLag(t *testing.T) {
	const at = sim.Time(1 * sim.Second)
	const flushTime = 3 * sim.Millisecond
	for _, tc := range []struct {
		name   string
		behind sim.Duration // how far background work runs past `at`
		stall  sim.Duration
	}{
		{"idle", 0, 0},
		{"within lag", 20 * sim.Millisecond, 0},
		{"at lag", 50 * sim.Millisecond, 0},
		{"beyond lag", 57 * sim.Millisecond, 7 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Tracer = trace.New(trace.Config{})
			d := newFake(t, cfg)
			d.flush = func(start sim.Time) (sim.Time, error) {
				d.Drain()
				return start.Add(flushTime), nil
			}
			fill(t, d, 0) // long before `at`, so the controller CPU is idle again
			d.BgDoneAt = at.Add(tc.behind)

			done, err := d.put(at, key(9999), make([]byte, 256))
			if err != nil {
				t.Fatal(err)
			}
			start := at.Add(tc.stall)
			if len(d.flushes) != 1 || d.flushes[0] != start {
				t.Fatalf("flush starts %v, want one at %v", d.flushes, start)
			}
			if d.BgDoneAt != start.Add(flushTime) {
				t.Fatalf("BgDoneAt = %v, want %v", d.BgDoneAt, start.Add(flushTime))
			}
			// The host sees its own admission cost or the stall, whichever
			// is later — never the flush itself.
			admitted := at.Add(cfg.RequestOverhead + lsm.HashCost)
			if want := sim.Max(admitted, start); done != want {
				t.Fatalf("write completed at %v, want %v", done, want)
			}
			stalls := writeStalls(cfg.Tracer)
			if tc.stall == 0 {
				if len(stalls) != 0 {
					t.Fatalf("unexpected write-stall spans: %+v", stalls)
				}
				return
			}
			if len(stalls) != 1 || stalls[0].Start != at || stalls[0].End != start ||
				stalls[0].Cause != trace.CauseWriteStall {
				t.Fatalf("write-stall spans = %+v, want one [%v, %v]", stalls, at, start)
			}
		})
	}
}

// Sync with nothing unsynced costs no time, no flash operation and no flush,
// even while background work is still in flight; with something unsynced it
// programs the journal at once and completes no earlier than that work.
func TestSyncEmptyBufferIsFree(t *testing.T) {
	d := newFake(t, smallConfig())
	d.flush = func(start sim.Time) (sim.Time, error) {
		d.Drain()
		return start.Add(sim.Millisecond), nil
	}
	const at = sim.Time(5 * sim.Second)
	d.BgDoneAt = at.Add(inFlight)

	end, err := d.Sync(at)
	if err != nil || end != at {
		t.Fatalf("empty Sync = %v, %v; want %v, nil", end, err, at)
	}
	if len(d.flushes) != 0 || d.BgDoneAt != at.Add(inFlight) || flashOps(d) != 0 {
		t.Fatalf("empty Sync flushed (%v), moved BgDoneAt (%v) or touched flash (%d ops)",
			d.flushes, d.BgDoneAt, flashOps(d))
	}

	if _, err := d.put(at, key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	end, err = d.Sync(at)
	if want := at.Add(inFlight); err != nil || end != want || d.BgDoneAt != want {
		t.Fatalf("Sync = %v, %v (BgDoneAt %v); want %v", end, err, d.BgDoneAt, want)
	}
	if len(d.flushes) != 0 {
		t.Fatalf("Sync flushed the buffer at %v", d.flushes)
	}

	// Nothing written since: the next Sync is free again.
	before := flashOps(d)
	end, err = d.Sync(at)
	if err != nil || end != at || flashOps(d) != before {
		t.Fatalf("repeated Sync = %v, %v with %d flash ops; want %v, nil, 0", end, err, flashOps(d)-before, at)
	}
}

// inFlight is how far past the sync instant the tests' background work runs:
// longer than any single page program, so a Sync that waits for it ends
// exactly with it.
const inFlight = 100 * sim.Millisecond

func flashOps(d *fakeDesign) int64 {
	c := d.Arr.Counters()
	return c.TotalReads() + c.TotalWrites() + c.Erases
}

// journalPages counts the valid pages in journal-owned blocks.
func journalPages(d *fakeDesign) int {
	n := 0
	for b := 0; b < d.Pool.TotalBlocks(); b++ {
		if d.Pool.Owner(nand.BlockID(b)) == ftl.RegionJournal {
			n += d.Pool.ValidPages(nand.BlockID(b))
		}
	}
	return n
}

// recordBytes is the journal's encoding of one pair: a flag byte, the two
// lengths as uvarints, the bytes.
func recordBytes(k, v []byte) int {
	var tmp [binary.MaxVarintLen64]byte
	return 1 + binary.PutUvarint(tmp[:], uint64(len(k))) + binary.PutUvarint(tmp[:], uint64(len(v))) + len(k) + len(v)
}

// A sync costs ⌈unsynced bytes / page payload⌉ programs dispatched at the
// sync instant, no reads and no flush; the pairs stay in the buffer and the
// next Get is answered from it.
func TestSyncJournalsUnsyncedBytes(t *testing.T) {
	cfg := smallConfig()
	payload := lsm.JournalPayload(cfg.Geometry.PageSize)
	per := recordBytes(key(0), val(0))
	exact := payload / per // pairs that still fit one page
	for _, pairs := range []int{1, exact, exact + 1, 2*exact + 1} {
		t.Run(fmt.Sprint(pairs), func(t *testing.T) {
			d := newFake(t, cfg)
			d.flush = func(at sim.Time) (sim.Time, error) { t.Fatal("flush"); return at, nil }
			for i := 0; i < pairs; i++ {
				if _, err := d.put(0, key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			// An overwrite before the sync replaces the pending version: the
			// journal owes the newest one only.
			if _, err := d.put(0, key(0), val(0)); err != nil {
				t.Fatal(err)
			}
			const at = sim.Time(sim.Second)
			before := d.Arr.Counters()
			end, err := d.Sync(at)
			if err != nil {
				t.Fatal(err)
			}
			got := d.Arr.Counters().Sub(before)
			want := int64((pairs*per + payload - 1) / payload)
			if got.Writes[nand.CauseFlush] != want || got.TotalWrites() != want || got.TotalReads() != 0 || got.Erases != 0 {
				t.Fatalf("%d bytes synced with %+v, want %d flush programs and nothing else", pairs*per, got, want)
			}
			if d.St.Syncs != 1 || d.St.JournalPages != want || d.St.SyncFlushes != 0 || journalPages(d) != int(want) {
				t.Fatalf("stats %d syncs / %d pages / %d flushes, %d valid journal pages; want 1 / %d / 0, %d",
					d.St.Syncs, d.St.JournalPages, d.St.SyncFlushes, journalPages(d), want, want)
			}
			// All parts are dispatched together: even the multi-page sync ends
			// within one (slowest, MSB) program of the sync instant.
			if slowest := cfg.Timing.Program[2]; end <= at || end > at.Add(3*slowest) {
				t.Fatalf("Sync ended at %v, want within (%v, %v]", end, at, at.Add(3*slowest))
			}
			if d.MT.Len() != pairs || d.MT.AnyUnsynced() {
				t.Fatalf("buffer holds %d entries (unsynced: %v) after Sync, want %d and none", d.MT.Len(), d.MT.AnyUnsynced(), pairs)
			}
			v, _, done, err := d.BeginGet(end, key(pairs-1))
			if !done || err != nil || !bytes.Equal(v, val(pairs-1)) || flashOps(d) != before.TotalWrites()+want {
				t.Fatalf("Get after Sync = %q, done %v, %v: not answered from the buffer", v, done, err)
			}
		})
	}
}

// The journal never holds more live pages than the buffer has pages. A sync
// that would exceed the bound rewrites the journal from the buffer — a
// checkpoint, which costs programs only and erases the blocks it kills — so
// small syncs of a small buffer go on for ever at no more than two programs
// each and a constant number of blocks. Only a buffer that needs more than
// half the bound falls back to the flush, and that flush — like one the flush
// gate starts — retires the whole journal, whose blocks the next space
// reclamation erases without relocating anything.
func TestJournalBoundAndRetirement(t *testing.T) {
	cfg := smallConfig()
	bound := int(cfg.MemtableBytes) / cfg.Geometry.PageSize
	d := newFake(t, cfg)
	d.flush = func(start sim.Time) (sim.Time, error) {
		d.Drain()
		return start.Add(sim.Millisecond), nil
	}
	freeAtStart := d.Pool.FreeBlocks()
	recovered := func(now sim.Time) {
		t.Helper()
		if _, err := d.EnsureFree(now, freeAtStart-cfg.FreeBlockReserve); err != nil || d.Pool.FreeBlocks() != freeAtStart {
			t.Fatalf("%d of %d blocks free after reclaiming the retired journal (%v)", d.Pool.FreeBlocks(), freeAtStart, err)
		}
		if c := d.Arr.Counters(); c.TotalReads() != 0 || c.Writes[nand.CauseGC] != 0 {
			t.Fatalf("journal reclamation moved data: %+v", c)
		}
	}

	// Three keys overwritten in turn, a sync after every write: enough pages
	// to fill the journal's blocks several times over.
	var now sim.Time
	var err error
	syncs := 10 * bound
	if syncs <= 2*cfg.Geometry.PagesPerBlock {
		t.Fatalf("%d syncs cannot fill two %d-page blocks", syncs, cfg.Geometry.PagesPerBlock)
	}
	for i := 0; i < syncs; i++ {
		if now, err = d.put(now, key(i%3), val(i)); err != nil {
			t.Fatal(err)
		}
		if now, err = d.Sync(now); err != nil {
			t.Fatal(err)
		}
		if n := journalPages(d); n > bound {
			t.Fatalf("sync %d: %d live journal pages, bound %d", i, n, bound)
		}
		// The live pages are consecutive in the stream and fewer than a
		// block, so they span two blocks at most; every other journal block
		// is dead and must be gone.
		if free := d.Pool.FreeBlocks(); free < freeAtStart-2 {
			t.Fatalf("sync %d: %d of %d blocks free: dead journal blocks are not erased", i, free, freeAtStart)
		}
	}
	c := d.Arr.Counters()
	if len(d.flushes) != 0 || d.St.SyncFlushes != 0 || d.St.JournalCheckpoints < 1 {
		t.Fatalf("%d small syncs: %d flushes, %d counted as sync fallbacks, %d checkpoints; want 0, 0 and some",
			syncs, len(d.flushes), d.St.SyncFlushes, d.St.JournalCheckpoints)
	}
	if c.TotalWrites() > int64(2*syncs) || c.TotalWrites() != d.St.JournalPages || c.TotalReads() != 0 || c.Erases == 0 {
		t.Fatalf("%d small syncs cost %+v (%d journal pages); want at most two programs each, no read, some erases",
			syncs, c, d.St.JournalPages)
	}

	// Grow the buffer past what a checkpoint may take, still short of the
	// flush threshold: the next sync to meet the bound flushes instead.
	half := int64(bound / 2 * lsm.JournalPayload(cfg.Geometry.PageSize))
	for i := 0; d.MT.Bytes() <= half; i++ {
		if now, err = d.put(now, key(100+i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkpoints := d.St.JournalCheckpoints
	for i := 0; len(d.flushes) == 0; i++ {
		if i > bound {
			t.Fatalf("%d syncs past the bound and no fallback", i)
		}
		if now, err = d.put(now, key(0), val(i)); err != nil {
			t.Fatal(err)
		}
		if now, err = d.Sync(now); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.flushes) != 1 || d.St.SyncFlushes != 1 || d.St.JournalCheckpoints != checkpoints {
		t.Fatalf("oversized buffer: %d flushes, %d counted as sync fallbacks, %d more checkpoints; want 1, 1, 0",
			len(d.flushes), d.St.SyncFlushes, d.St.JournalCheckpoints-checkpoints)
	}
	if journalPages(d) != 0 || d.MT.Len() != 0 {
		t.Fatalf("the fallback left %d journal pages and %d buffered entries", journalPages(d), d.MT.Len())
	}
	recovered(now)

	// A flush the gate starts retires the journal just the same.
	if now, err = d.put(now, key(0), val(0)); err != nil {
		t.Fatal(err)
	}
	if now, err = d.Sync(now); err != nil {
		t.Fatal(err)
	}
	if journalPages(d) == 0 {
		t.Fatal("no live journal pages before the gate-triggered flush")
	}
	for i := 0; len(d.flushes) == 1; i++ {
		if now, err = d.put(now, key(1000+i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if journalPages(d) != 0 || d.St.SyncFlushes != 1 {
		t.Fatalf("gate-triggered flush left %d journal pages (sync fallbacks 1 → %d)", journalPages(d), d.St.SyncFlushes)
	}
	recovered(now)
}

// failPrograms fails every page program.
type failPrograms struct{}

func (failPrograms) OnRead(nand.PPA, nand.Cause) int       { return 0 }
func (failPrograms) OnProgram(nand.PPA, nand.Cause) bool   { return true }
func (failPrograms) OnErase(nand.BlockID, nand.Cause) bool { return false }

// A checkpoint that cannot be programmed supersedes nothing: the pages before
// it stay valid and keep covering what they covered, and what the sync was
// asked to make durable is still owed.
func TestFailedCheckpointKeepsJournal(t *testing.T) {
	cfg := smallConfig()
	bound := int(cfg.MemtableBytes) / cfg.Geometry.PageSize
	d := newFake(t, cfg)
	d.flush = func(at sim.Time) (sim.Time, error) { t.Fatal("flush"); return at, nil }
	var now sim.Time
	var err error
	for i := 0; i < bound; i++ {
		if now, err = d.put(now, key(0), val(i)); err != nil {
			t.Fatal(err)
		}
		if now, err = d.Sync(now); err != nil {
			t.Fatal(err)
		}
	}
	if journalPages(d) != bound || d.St.JournalCheckpoints != 0 {
		t.Fatalf("%d journal pages and %d checkpoints after %d syncs; want the journal at its bound", journalPages(d), d.St.JournalCheckpoints, bound)
	}
	if now, err = d.put(now, key(0), val(bound)); err != nil {
		t.Fatal(err)
	}
	d.Arr.SetInjector(failPrograms{})
	if _, err = d.Sync(now); !errors.Is(err, kv.ErrDeviceFull) {
		t.Fatalf("Sync with every program failing = %v, want device full", err)
	}
	if journalPages(d) != bound || d.St.JournalCheckpoints != 0 || !d.MT.AnyUnsynced() {
		t.Fatalf("failed checkpoint left %d valid journal pages (want %d), counted %d checkpoints, unsynced %v",
			journalPages(d), bound, d.St.JournalCheckpoints, d.MT.AnyUnsynced())
	}
}

// A flush that fails retires nothing: the journal still covers what it
// covered, and the entries the flush put back are unsynced again.
func TestFailedFlushKeepsJournal(t *testing.T) {
	d := newFake(t, smallConfig())
	d.flush = func(at sim.Time) (sim.Time, error) {
		d.Restore(d.Drain())
		return at, kv.ErrDeviceFull
	}
	var now sim.Time
	var err error
	for i := 0; i < 3; i++ {
		if now, err = d.put(now, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if now, err = d.Sync(now); err != nil {
			t.Fatal(err)
		}
	}
	if journalPages(d) != 3 || d.MT.AnyUnsynced() {
		t.Fatalf("%d journal pages, unsynced %v; want 3 and none", journalPages(d), d.MT.AnyUnsynced())
	}
	for i := 0; err == nil; i++ {
		now, err = d.put(now, key(100+i), val(i))
	}
	if !errors.Is(err, kv.ErrDeviceFull) || len(d.flushes) != 1 {
		t.Fatalf("gate flush: %v after %d flushes", err, len(d.flushes))
	}
	if journalPages(d) != 3 {
		t.Fatalf("failed flush left %d valid journal pages, want 3", journalPages(d))
	}
	if !d.MT.AnyUnsynced() {
		t.Fatal("restored entries count as synced")
	}
}

// EnsureFree gives up after eight rounds that claim progress without growing
// the pool, asking the design's Spill hook first.
func TestEnsureFreeCountsStalls(t *testing.T) {
	d := newFake(t, smallConfig())
	rounds, spills := 0, 0
	d.Hooks.GCOnce = func(at sim.Time) (sim.Time, bool, error) {
		rounds++
		return at.Add(sim.Microsecond), true, nil
	}
	d.Hooks.Spill = func() bool {
		spills++
		return spills == 1 // the first spill buys another eight rounds
	}
	end, err := d.EnsureFree(0, d.Pool.TotalBlocks())
	if !errors.Is(err, kv.ErrDeviceFull) {
		t.Fatalf("EnsureFree = %v, want device full", err)
	}
	if rounds != 16 || spills != 2 {
		t.Fatalf("%d GC rounds and %d spills, want 16 and 2", rounds, spills)
	}
	if want := sim.Time(16 * sim.Microsecond); end != want {
		t.Fatalf("EnsureFree returned %v, want the GC chain's end %v", end, want)
	}
	if _, err := d.EnsureFree(0, 0); err != nil {
		t.Fatalf("EnsureFree on a fresh pool: %v", err)
	}
}
