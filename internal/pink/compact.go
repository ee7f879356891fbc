package pink

import (
	"fmt"
	"slices"

	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Garbage-collection reentrancy: full GC (EnsureFree) relocates live pairs
// and patches the meta segments referencing them, so it may only run when
// every record is installed in some level. flush and the cascade loop call
// it at exactly those points; the page-allocation helpers in between fall
// back to reclaimEmpty (erase-only, always safe) if the pool runs dry.

// flush performs the L0→L1 compaction (paper §3.2, "Write Operation in
// PinK"): buffered pairs are written to data segment pages and their records
// merged into L1's meta segments; overflowing levels cascade downward.
func (d *Device) flush(at sim.Time) (sim.Time, error) {
	done, err := d.flushCascade(at)
	if err == nil && d.Tr != nil {
		d.Tr.Span(trace.BGTrack(trace.CauseFlush), trace.EvFlush,
			trace.CauseFlush, at, at, done, 0)
	}
	return done, err
}

func (d *Device) flushCascade(at sim.Time) (sim.Time, error) {
	// GC must run before the buffer is drained: it re-inserts surviving
	// pairs into the buffer and classifies victims against installed
	// records only, so no record may be in flight while it runs. Because
	// those re-inserts grow the buffer — and with it the data pages the
	// drain will write — the estimate is re-evaluated until it stabilises.
	now := at
	var err error
	for {
		est := d.flushBlockEstimate()
		now, err = d.EnsureFree(now, est)
		if err != nil {
			return now, err
		}
		if d.flushBlockEstimate() <= est {
			break
		}
	}
	entries := d.Drain()
	recs, now, err := d.writeDataPages(now, entries)
	if err != nil {
		// Data pages already written are simply re-shadowed by the restored
		// buffer and collected by GC later.
		d.Restore(entries)
		return now, err
	}

	pending := recs
	dst := 1
	for {
		for len(d.levels) < dst {
			d.levels = append(d.levels, &level{})
		}
		d.St.TreeCompactions++
		old, t := d.collectLevelRecords(now, dst-1, nand.CauseCompaction)
		now = t
		merged := d.mergeRecords(pending, old, d.deepestBelow(dst))
		now = d.CPUOccupy(now, sim.Duration(len(merged))*lsm.MergeCPUCost, trace.CauseCompaction)
		now, err = d.writeLevel(now, dst, merged)
		if err != nil {
			return now, err // records of this merge are lost; device is full
		}
		if d.levels[dst-1].bytes <= d.threshold(dst) {
			return now, nil
		}
		// Cascade: the level just written overflows its threshold, so a
		// tree-triggered compaction merges it into the next level. Cascades
		// write meta pages only, and the collected levels' per-level blocks
		// die wholesale, so the erase-only reclaim inside nextPage keeps the
		// pool supplied; relocating GC is never needed (and would be unsafe)
		// mid-cascade.
		pending, now = d.collectLevelRecords(now, dst-1, nand.CauseCompaction)
		dst++
	}
}

// flushBlockEstimate bounds the blocks one flush may consume up front: the
// buffered pairs' data pages plus a small meta margin. Meta rebuilds replace
// per-level blocks that die wholesale at collect time, so the erase-only
// reclaim inside the merge keeps pace with meta writes.
func (d *Device) flushBlockEstimate() int {
	pages := 2*d.MT.Bytes()/int64(d.Cfg.Geometry.PageSize) + 8
	return int(pages/int64(d.Cfg.Geometry.PagesPerBlock)) + 2
}

// writeDataPages packs the flushed pairs into data segment pages, returning
// their meta records in key order.
func (d *Device) writeDataPages(at sim.Time, entries []memtable.Entry) ([]record, sim.Time, error) {
	recs := make([]record, 0, len(entries))
	pageBuf := d.arena.Acquire()
	w := kv.NewPageWriter(pageBuf, nil)
	var pending []int // indices in recs whose loc awaits the page's PPA
	now := at

	flushPage := func() error {
		if w.Count() == 0 {
			return nil
		}
		kv.SealPage(pageBuf)
		ppa, t, err := d.programPage(at, d.dataStream, pageBuf, nand.CauseFlush)
		if err != nil {
			return err
		}
		now = sim.Max(now, t)
		live := make([]bool, w.Count())
		for i := range live {
			live[i] = true
		}
		seq := d.nextSeq
		d.nextSeq++
		d.l2p[seq] = ppa
		d.p2l[ppa] = seq
		d.liveSlots[seq] = live
		ss := d.blockSlotsOf(d.Arr.BlockOf(ppa))
		ss.live += int32(len(live))
		ss.total += int32(len(live))
		d.Pool.MarkValid(ppa)
		for slotIdx, ri := range pending {
			recs[ri].loc = makeLoc(seq, slotIdx)
		}
		pending = pending[:0]
		d.arena.Release(pageBuf) // programmed: the array copied what it keeps
		pageBuf = d.arena.Acquire()
		w = kv.NewPageWriter(pageBuf, nil)
		return nil
	}

	for i := range entries {
		ent := &entries[i]
		if ent.Tombstone {
			recs = append(recs, record{key: ent.Key, loc: tombstoneLoc})
			continue
		}
		e := kv.Entity{Key: ent.Key, Value: ent.Value}
		if !w.AppendEntity(&e) {
			if err := flushPage(); err != nil {
				return nil, now, err
			}
			if !w.AppendEntity(&e) {
				panic(fmt.Sprintf("pink: pair of %d bytes does not fit an empty page", e.EncodedSize()))
			}
		}
		recs = append(recs, record{key: ent.Key, loc: makeLoc(0, w.Count()-1), vlen: len(ent.Value)})
		pending = append(pending, len(recs)-1)
	}
	if err := flushPage(); err != nil {
		return nil, now, err
	}
	return recs, now, nil
}

// nextPage allocates the next page of a stream, erasing fully-invalid
// blocks (safe at any point) when the pool runs dry.
// programPage allocates a page from stream s and programs img into it,
// re-issuing into a fresh block when an injected program failure retires the
// current one as grown-bad. Returns the landed PPA and completion time.
func (d *Device) programPage(at sim.Time, s *ftl.Stream, img []byte, cause nand.Cause) (nand.PPA, sim.Time, error) {
	now := at
	for {
		ppa, err := d.nextPage(now, s)
		if err != nil {
			return 0, now, err
		}
		t, perr := d.Arr.Program(now, ppa, img, cause)
		now = t
		if perr == nil {
			return ppa, now, nil
		}
		s.Close() // the block grew bad; force a fresh one
	}
}

func (d *Device) nextPage(at sim.Time, s *ftl.Stream) (nand.PPA, error) {
	if ppa, ok := s.NextPage(); ok {
		return ppa, nil
	}
	if _, reclaimed := d.reclaimEmpty(at); reclaimed {
		if ppa, ok := s.NextPage(); ok {
			return ppa, nil
		}
	}
	return 0, kv.ErrDeviceFull
}

// collectLevelRecords reads every meta segment of level index i (flash
// reads for non-resident ones, all issued in parallel at `at`), decodes the
// records, and releases the segments. The level is left empty.
func (d *Device) collectLevelRecords(at sim.Time, i int, cause nand.Cause) ([]record, sim.Time) {
	lv := d.levels[i]
	total := 0
	for _, seg := range lv.segs {
		total += seg.count
	}
	recs := make([]record, 0, total)
	now := at
	for _, seg := range lv.segs {
		if !seg.cached {
			now = sim.Max(now, d.Arr.Read(at, seg.ppa, cause))
		}
		recs = appendAllRecords(recs, d.Arr.PageData(seg.ppa))
		d.releaseSegment(seg)
	}
	lv.segs = nil
	lv.bytes = 0
	return recs, now
}

// releaseSegment invalidates a segment's flash page and returns any cache
// charge.
func (d *Device) releaseSegment(seg *metaSegment) {
	if seg.cached {
		d.Mem.Release(dramSegLabel, int64(d.Cfg.Geometry.PageSize))
		seg.cached = false
	}
	d.Pool.MarkInvalid(seg.ppa)
	delete(d.segAt, seg.ppa)
}

// deepestBelow reports whether every level deeper than dst is empty, which
// makes dst the tree's bottom: tombstones merged into it can be dropped.
func (d *Device) deepestBelow(dst int) bool {
	for i := dst; i < len(d.levels); i++ {
		if len(d.levels[i].segs) > 0 {
			return false
		}
	}
	return true
}

// mergeRecords merges two key-sorted runs, newer first. Losing records have
// their data slots invalidated; tombstones are dropped when merging into the
// bottom level.
//
// The output reuses d.mergeBuf: only one merged run is live at a time (each
// cascade step writes its run out, then collects the next level fresh), so
// steady-state merging allocates nothing per record.
func (d *Device) mergeRecords(newer, older []record, atBottom bool) []record {
	if need := len(newer) + len(older); cap(d.mergeBuf) < need {
		d.mergeBuf = make([]record, 0, need)
	}
	out := d.mergeBuf[:0]
	defer func() { d.mergeBuf = out[:0] }()
	i, j := 0, 0
	emit := func(r record) {
		if r.tombstone() && atBottom {
			return
		}
		out = append(out, r)
	}
	for i < len(newer) && j < len(older) {
		switch kv.Compare(newer[i].key, older[j].key) {
		case -1:
			emit(newer[i])
			i++
		case 1:
			emit(older[j])
			j++
		default:
			d.invalidateLoc(older[j].loc)
			emit(newer[i])
			i++
			j++
		}
	}
	for ; i < len(newer); i++ {
		emit(newer[i])
	}
	for ; j < len(older); j++ {
		emit(older[j])
	}
	return out
}

// invalidateLoc drops a record's claim on its data slot, releasing the page
// when its last live slot dies. Records whose page was already reclaimed by
// GC (dangling shadowed versions) miss the never-reused logical page map and
// are ignored.
func (d *Device) invalidateLoc(loc dataLoc) {
	if loc == tombstoneLoc {
		return
	}
	live, ok := d.liveSlots[loc.seq()]
	if !ok || !live[loc.slot()] {
		return // GC already dropped this version
	}
	live[loc.slot()] = false
	d.blockSlotsOf(d.Arr.BlockOf(d.l2p[loc.seq()])).live--
	for _, l := range live {
		if l {
			return
		}
	}
	d.dropPage(loc.seq())
}

// writeLevel packs records into meta segment pages and installs them as
// level dst (1-based), choosing DRAM or flash placement for each.
func (d *Device) writeLevel(at sim.Time, dst int, recs []record) (sim.Time, error) {
	lv := d.levels[dst-1]
	if len(lv.segs) != 0 {
		panic("pink: writeLevel into non-empty level")
	}
	now := at
	pageBuf := d.arena.Acquire()
	w := kv.NewPageWriter(pageBuf, nil)
	var first []byte
	var segBytes int64
	var count int

	finish := func() error {
		if count == 0 {
			return nil
		}
		seg := &metaSegment{firstKey: append([]byte(nil), first...), count: count}
		// Meta segments persist to flash unconditionally; all writes of the
		// rebuild dispatch at the phase start (per-die contention is the
		// flash model's job, so the rebuild parallelises).
		t, err := d.segmentToFlash(at, dst, seg, pageBuf, nand.CauseCompaction)
		if err != nil {
			return err
		}
		now = sim.Max(now, t)
		lv.segs = append(lv.segs, seg)
		lv.bytes += segBytes
		d.arena.Release(pageBuf) // programmed: the array copied what it keeps
		pageBuf = d.arena.Acquire()
		w = kv.NewPageWriter(pageBuf, nil)
		first = nil
		segBytes = 0
		count = 0
		return nil
	}

	scratch := make([]byte, 0, 256)
	for ri := range recs {
		r := &recs[ri]
		scratch = encodeRecord(scratch[:0], r)
		if !w.AppendRaw(scratch) {
			if err := finish(); err != nil {
				return now, err
			}
			if !w.AppendRaw(scratch) {
				panic("pink: record does not fit an empty meta segment")
			}
		}
		if count == 0 {
			first = r.key
		}
		count++
		segBytes += r.bytes()
	}
	if err := finish(); err != nil {
		return now, err
	}
	d.rebuildMetaCache()
	return now, nil
}

// rebuildMetaCache repopulates the DRAM meta-segment cache greedily from the
// top level down — PinK pins upper levels (§3.2). Cache admission costs
// nothing extra: freshly rebuilt segments pass through controller RAM, and
// deeper segments are only flagged, paying their read on first miss.
func (d *Device) rebuildMetaCache() {
	pageSize := int64(d.Cfg.Geometry.PageSize)
	d.Mem.ReleaseAll(dramSegLabel)
	full := false
	for _, lv := range d.levels {
		for _, seg := range lv.segs {
			if !full && d.Mem.Reserve(dramSegLabel, pageSize) {
				seg.cached = true
			} else {
				full = true
				seg.cached = false
			}
		}
	}
}

// segmentToFlash programs a segment image into the meta region, using the
// level's own allocation stream so level rebuilds free whole blocks.
func (d *Device) segmentToFlash(at sim.Time, levelIdx int, seg *metaSegment, img []byte, cause nand.Cause) (sim.Time, error) {
	kv.SealPage(img)
	ppa, done, err := d.programPage(at, d.metaStream(levelIdx), img, cause)
	if err != nil {
		return at, err
	}
	seg.ppa = ppa
	d.Pool.MarkValid(ppa)
	d.segAt[ppa] = seg
	return done, nil
}

// levelOfSegment finds the 1-based level index owning seg (small scans; used
// by GC diagnostics only).
func (d *Device) levelOfSegment(seg *metaSegment) int {
	for i, lv := range d.levels {
		j, _ := slices.BinarySearchFunc(lv.segs, seg.firstKey, func(s *metaSegment, k []byte) int {
			if kv.Compare(s.firstKey, k) > 0 {
				return 1
			}
			return -1
		})
		if j > 0 && lv.segs[j-1] == seg {
			return i + 1
		}
		for _, s := range lv.segs {
			if s == seg {
				return i + 1
			}
		}
	}
	return 0
}

// metaStream returns (creating on demand) the meta-page allocation stream
// for one level.
func (d *Device) metaStream(levelIdx int) *ftl.Stream {
	s, ok := d.metaStreams[levelIdx]
	if !ok {
		s = ftl.NewStream(d.Pool, ftl.RegionMeta)
		d.metaStreams[levelIdx] = s
	}
	return s
}

// dropPage retires a fully dead logical data page: its physical page is
// invalidated and the indirection entries removed.
func (d *Device) dropPage(seq uint64) {
	ppa, ok := d.l2p[seq]
	if !ok {
		panic("pink: dropPage of unmapped page")
	}
	live := d.liveSlots[seq]
	b := d.Arr.BlockOf(ppa)
	ss := d.blockSlotsOf(b)
	for _, l := range live {
		if l {
			ss.live--
		}
	}
	ss.total -= int32(len(live))
	if ss.total == 0 {
		delete(d.slotStats, b)
	}
	delete(d.liveSlots, seq)
	delete(d.l2p, seq)
	delete(d.p2l, ppa)
	d.Pool.MarkInvalid(ppa)
}

// blockSlotsOf returns (creating on demand) the slot census for block b.
func (d *Device) blockSlotsOf(b nand.BlockID) *blockSlots {
	ss, ok := d.slotStats[b]
	if !ok {
		ss = &blockSlots{}
		d.slotStats[b] = ss
	}
	return ss
}
