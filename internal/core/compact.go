package core

import (
	"encoding/binary"

	"anykey/internal/device/lsm"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
	"anykey/internal/xxhash"
)

// Compaction (paper §4.4, Fig. 8). Two triggers exist:
//
//   - Tree-triggered: a level exceeds its size threshold after a merge; the
//     whole level is merged into the next one. Values living in the value
//     log are carried as pointers with no I/O.
//   - Log-triggered: the value log reaches its size trigger; a source level
//     is chosen and merged into the next level while its (and the
//     destination's) log-resident values are folded into the new groups,
//     freeing log blocks. Base AnyKey folds everything — which can push the
//     destination over its threshold and chain straight into a
//     tree-triggered compaction (the §4.6 problem). AnyKey+ stops folding at
//     α × threshold and writes the remainder back to fresh log space, and
//     picks its source by invalid-log-bytes rather than valid-log-bytes.
//
// Garbage collection of the group area is safe at any moment (it relocates
// whole groups by PPA and consults no records), so unlike PinK there is no
// reentrancy protocol here — allocation helpers GC on demand.

// alpha is AnyKey+'s early-termination point (§4.6) as a fraction of the
// destination level's threshold.
const alpha = 0.9

// compactOpts parameterises one compaction run.
type compactOpts struct {
	inlineLog bool  // fold log-resident values into the new groups
	alphaCut  int64 // >0: stop folding once the destination holds this many bytes
	fromLog   bool  // this run was triggered by the value log filling
	flush     bool  // pending is the drained write buffer
}

// flush drains the memtable: values are appended to the value log (the
// paper's write path — "all values from new writes are written into the
// value log first") and the resulting key/pointer entities are merged into
// L1, cascading as needed.
func (d *Device) flush(at sim.Time) (sim.Time, error) {
	entries := d.Drain()

	now := at
	var valueBytes int64
	for i := range entries {
		if !entries[i].Tombstone {
			valueBytes += int64(len(entries[i].Value))
		}
	}
	useLog := d.vlog != nil
	if useLog {
		t, err := d.ensureLogRoom(now, valueBytes)
		if err != nil {
			d.Restore(entries)
			return t, err
		}
		now = t
		// If compaction could not make room (the log is pinned by live
		// values and stragglers), this flush inlines its values into the
		// groups instead of overshooting the log area — the degraded mode
		// base AnyKey exhibits under value-heavy workloads.
		useLog = d.vlog.roomFor(valueBytes)
	}
	t, err := d.EnsureFree(now, 1)
	if err != nil {
		d.Restore(entries)
		return t, err
	}
	now = t

	// Log appends are dispatched as one batch at the flush instant: each
	// page program queues on its own chip (the flash model handles per-die
	// contention), and the flush completes when the slowest lands.
	appendAt := now
	ents := make([]kv.Entity, 0, len(entries))
	for i := range entries {
		ent := &entries[i]
		e := kv.Entity{Key: ent.Key, Hash: xxhash.Sum32(ent.Key)}
		switch {
		case ent.Tombstone:
			e.Tombstone = true
		case useLog:
			ptr, t, err := d.vlog.append(appendAt, ent.Value, nand.CauseFlush)
			if err != nil {
				d.Restore(entries)
				return t, err
			}
			now = sim.Max(now, t)
			e.InLog = true
			e.LogPtr = ptr
			e.ValueLen = len(ent.Value)
		default: // AnyKey−: inline
			e.Value = ent.Value
			e.ValueLen = len(ent.Value)
		}
		ents = append(ents, e)
	}
	var physUnit int64
	for i := range ents {
		physUnit += int64(ents[i].EncodedSize() + 6)
	}
	if physUnit > d.flushUnit {
		d.flushUnit = physUnit
	}
	// The L1 rebuild advances flushEpoch; it stands only if the whole unit —
	// cascades included — succeeds, because the front-end retires the journal
	// only then.
	flushed := d.flushEpoch
	done, err := d.compactInto(now, 1, ents, compactOpts{flush: true})
	if err != nil {
		d.flushEpoch = flushed
		d.Restore(entries)
	} else if d.Tr != nil {
		d.Tr.Span(trace.BGTrack(trace.CauseFlush), trace.EvFlush,
			trace.CauseFlush, at, at, done, int64(len(entries)))
	}
	return done, err
}

// compactInto merges pending (key-sorted, newer than level dst) into level
// dst, then cascades tree-triggered compactions while levels overflow.
//
// Crash consistency: one compactInto call is one recovery unit. While it
// runs, (a) value-log invalidations queue in DRAM instead of hitting the
// log's validity accounting (so no log block whose values the *previous*
// level epoch still references can be erased before the new epoch is
// durable), and (b) the flash pages of consumed input groups stay valid
// until the writeLevel that replaces them returns (release-after-durable).
// A power cut anywhere inside the unit therefore leaves the previous epochs
// and their log references intact on flash, and recovery mounts them.
func (d *Device) compactInto(at sim.Time, dst int, pending []kv.Entity, opts compactOpts) (sim.Time, error) {
	if d.invalDefer {
		panic("core: nested compaction unit")
	}
	d.invalDefer = true
	now, err := d.compactIntoUnit(at, dst, pending, opts)
	// Not deferred: after a power-cut panic the half-merged device object is
	// abandoned, and so is the queue — exactly what losing DRAM means.
	d.invalDefer = false
	d.drainInval()
	if err == nil && d.Tr != nil {
		d.Tr.Span(trace.BGTrack(trace.CauseCompaction), trace.EvCompaction,
			trace.CauseCompaction, at, at, now, int64(dst))
	}
	return now, err
}

func (d *Device) compactIntoUnit(at sim.Time, dst int, pending []kv.Entity, opts compactOpts) (sim.Time, error) {
	now := at
	for {
		for len(d.levels) < dst {
			d.levels = append(d.levels, &level{})
		}
		if !opts.fromLog {
			d.St.TreeCompactions++
		}
		old, t := d.readLevelEntities(now, dst-1, nand.CauseCompaction)
		now = t
		merged := d.mergeEntities(pending, old, dst, d.deepestBelow(dst))
		now = d.CPUOccupy(now, sim.Duration(len(merged))*lsm.MergeCPUCost, trace.CauseCompaction)
		if opts.inlineLog {
			merged, now = d.foldLogValues(now, merged, opts.alphaCut, d.foldSpaceBudget())
		}
		var tail []kv.Entity
		var err error
		now, tail, err = d.writeLevel(now, dst, merged, opts.flush)
		// The rebuilt level is durable (or the device is full and the merge
		// is abandoned either way): the groups it consumed can die now.
		d.releaseConsumed()
		if err != nil {
			// The device filled mid-rebuild: the level's inputs are already
			// consumed, so the merged entities that never reached flash go
			// back to the memtable — no accepted pair is lost.
			now = d.requeueEntities(now, tail)
			return now, err
		}
		if d.levels[dst-1].bytes <= d.threshold(dst) {
			return now, nil
		}
		if opts.fromLog {
			// A log-triggered compaction just overflowed its destination:
			// this cascade is the compaction chain AnyKey+ exists to avoid.
			d.St.ChainedCompactions++
		}
		opts = compactOpts{} // cascades are plain tree compactions
		pending, now = d.readLevelEntities(now, dst-1, nand.CauseCompaction)
		dst++
	}
}

// readLevelEntities reads every page of every group in level index i (reads
// issued in parallel at `at`), decodes the entities in key order via the
// location tables, and dismantles the level's DRAM presence. The groups'
// flash pages stay valid: they are parked on d.consumable and die only when
// releaseConsumed runs after the merge output is durable. Entities whose
// log value was lost to a power cut are filtered out here — the deeper,
// durable version of the key (if any) wins the merge instead.
func (d *Device) readLevelEntities(at sim.Time, i int, cause nand.Cause) ([]kv.Entity, sim.Time) {
	lv := d.levels[i]
	total := 0
	for _, g := range lv.groups {
		total += g.count
	}
	// The compaction loop holds at most two read runs live at once — the
	// pending run and the level being consumed — and every merge consumes
	// both before the next read. Alternating between two device-owned
	// scratch buffers therefore never overwrites a live run, and the entity
	// headers (key/value bytes alias flash pages) are reused across merges.
	d.levelBufIdx ^= 1
	ents := d.levelBufs[d.levelBufIdx][:0]
	if cap(ents) < total {
		ents = make([]kv.Entity, 0, total)
	}
	now := at
	for _, g := range lv.groups {
		imgs := make([][]byte, g.numPages)
		for p := 0; p < g.numPages; p++ {
			ppa := g.firstPPA + nand.PPA(p)
			now = sim.Max(now, d.Arr.Read(at, ppa, cause))
			imgs[p] = d.Arr.PageData(ppa)
		}
		d.gsc.locs = readLocationTableInto(d.gsc.locs[:0], imgs[:g.tablePages], g.count)
		table := d.gsc.locs
		for _, loc := range table {
			pr := kv.OpenPage(imgs[g.tablePages+int(loc.Page)])
			// Decode straight into the scratch slot; drop it again if the
			// entity's log value was lost to an uncorrectable fault.
			ents = append(ents, kv.Entity{})
			e := &ents[len(ents)-1]
			if err := pr.EntityInto(e, int(loc.Rec)); err != nil {
				panic(err)
			}
			if e.InLog && d.vlog.isLost(e.LogPtr) {
				ents = ents[:len(ents)-1]
			}
		}
		d.Mem.Release(dramLevelLabel, g.entryBytes())
		if g.hashes != nil {
			d.Mem.Release(dramHashLabel, g.hashListBytes())
			g.hashes = nil
		}
		d.consumable = append(d.consumable, g)
	}
	lv.groups = nil
	lv.bytes = 0
	lv.logInvalid = 0
	d.levelBufs[d.levelBufIdx] = ents
	return ents, now
}

// releaseConsumed invalidates the flash pages of every group parked by
// readLevelEntities. Until this runs, the previous level epochs remain
// fully readable on flash — the recovery fallback for a mid-merge power
// cut. EnsureFree may call it early under terminal space pressure (the
// documented crash-window trade, see DESIGN.md).
func (d *Device) releaseConsumed() {
	for _, g := range d.consumable {
		d.dropGroupPages(g)
	}
	d.consumable = nil
}

// dropGroupPages invalidates a group's flash pages and removes it from the
// block index. The page payloads stay readable (Go keeps the buffers alive)
// until the block is erased, mirroring real flash.
func (d *Device) dropGroupPages(g *group) {
	for p := 0; p < g.numPages; p++ {
		d.Pool.MarkInvalid(g.firstPPA + nand.PPA(p))
	}
	b := d.Arr.BlockOf(g.firstPPA)
	gs := d.groupsAt[b]
	for i, og := range gs {
		if og == g {
			d.groupsAt[b] = append(gs[:i], gs[i+1:]...)
			break
		}
	}
	if len(d.groupsAt[b]) == 0 {
		delete(d.groupsAt, b)
	}
}

// releaseGroup drops a group entirely: DRAM charges returned and flash
// pages invalidated immediately (no crash-consistency deferral; used where
// the group's data has already been relocated or is being discarded
// outright).
func (d *Device) releaseGroup(g *group) {
	d.Mem.Release(dramLevelLabel, g.entryBytes())
	if g.hashes != nil {
		d.Mem.Release(dramHashLabel, g.hashListBytes())
		g.hashes = nil
	}
	d.dropGroupPages(g)
}

// mergeEntities merges two key-sorted runs (newer wins). Superseded
// log-resident values die immediately in the log, and their bytes are
// attributed to the destination level's invalid counter — the AnyKey+
// source-selection signal. Tombstones are dropped at the bottom level.
//
// The output reuses d.mergeBuf: exactly one merged run is live at a time
// (compaction units cannot nest and a cascade step consumes the previous
// run before merging again), and only the entity headers live in the buffer
// — key/value bytes stay in the flash page images they alias — so reuse
// makes the merge allocation-free per entity in steady state.
func (d *Device) mergeEntities(newer, older []kv.Entity, dst int, atBottom bool) []kv.Entity {
	if need := len(newer) + len(older); cap(d.mergeBuf) < need {
		// Headroom: merge inputs grow a flush unit at a time during fill, so
		// an exact-fit buffer would be reallocated on almost every merge.
		d.mergeBuf = make([]kv.Entity, 0, need+need/2)
	}
	out := d.mergeBuf[:0]
	defer func() { d.mergeBuf = out[:0] }()
	emit := func(e *kv.Entity) {
		if e.Tombstone && atBottom {
			if e.InLog {
				panic("core: tombstone with log value")
			}
			return
		}
		out = append(out, *e)
	}
	drop := func(e *kv.Entity) {
		if e.InLog {
			d.vlog.invalidate(e.LogPtr, e.ValueLen)
			d.levels[dst-1].logInvalid += int64(e.ValueLen)
		}
	}
	i, j := 0, 0
	for i < len(newer) && j < len(older) {
		switch kv.Compare(newer[i].Key, older[j].Key) {
		case -1:
			emit(&newer[i])
			i++
		case 1:
			emit(&older[j])
			j++
		default:
			drop(&older[j])
			emit(&newer[i])
			i++
			j++
		}
	}
	for ; i < len(newer); i++ {
		emit(&newer[i])
	}
	for ; j < len(older); j++ {
		emit(&older[j])
	}
	return out
}

// foldLogValues is the log-triggered value movement: walking the merged
// run in key order, log-resident values are read (each log page once) and
// inlined into the entities until the α cutoff, after which AnyKey+
// relocates the remainder to fresh log space instead (Fig. 9b). alphaCut=0
// folds everything (base AnyKey).
// foldSpaceBudget bounds how many value bytes a fold may inline into the
// group area: the free pool minus the GC reserve. Folding beyond free space
// would wedge the device; values over budget simply stay in the log.
func (d *Device) foldSpaceBudget() int64 {
	free := int64(d.Pool.FreeBlocks()-lsm.FreeBlockReserve-4) *
		int64(d.cfg.Geometry.PagesPerBlock) * int64(pagePayload(d.cfg.Geometry.PageSize))
	if free < 0 {
		free = 0
	}
	return free / 2 // headroom for the entities themselves and churn
}

func (d *Device) foldLogValues(at sim.Time, ents []kv.Entity, alphaCut, spaceBudget int64) ([]kv.Entity, sim.Time) {
	now := at
	// Batch phase: every needed log page (including fragment-chain
	// continuations) is read once, all dispatched at the fold instant
	// (per-die queueing handled by the flash model).
	if d.foldPages == nil {
		d.foldPages = make(map[nand.PPA]bool)
	}
	pagesRead := d.foldPages
	clear(pagesRead)
	for i := range ents {
		if !ents[i].InLog {
			continue
		}
		for _, ppa := range d.vlog.fragPages(ents[i].LogPtr) {
			if ppa != d.vlog.curPPA && !pagesRead[ppa] {
				now = sim.Max(now, d.Arr.Read(at, d.vlog.phys(ppa), nand.CauseCompaction))
				pagesRead[ppa] = true
			}
		}
	}
	readVal := func(ptr uint64) []byte { return d.vlog.peek(ptr) }
	appendAt := now
	// builtBytes tracks the destination level's physical growth; the α
	// cutoff is against the level's physical threshold (Fig. 9b).
	var builtBytes, inlinedBytes int64
	for i := range ents {
		e := &ents[i]
		if !e.InLog {
			builtBytes += int64(e.EncodedSize() + 6)
			continue
		}
		candidate := builtBytes + int64(e.InlineSize(e.ValueLen)+6)
		overAlpha := alphaCut > 0 && candidate > alphaCut
		overSpace := inlinedBytes+int64(e.ValueLen) > spaceBudget
		if overAlpha || overSpace {
			// Written back into fresh log space instead of the groups:
			// AnyKey+'s early termination (Fig. 9b), and — for either
			// variant — the consolidation path when the group area lacks
			// room to inline. Write-back defragments the log: the old,
			// mostly dead blocks lose their last live bytes and erase.
			//
			// The peeked value is used without copying: programmed page
			// buffers are never mutated (erase only drops the reference),
			// open-page records are append-only, in-unit invalidations are
			// deferred, and both vlog.append and writeLevel copy the bytes
			// onward before the entity dies.
			val := readVal(e.LogPtr)
			d.vlog.invalidate(e.LogPtr, e.ValueLen)
			ptr, t, err := d.vlog.append(appendAt, val, nand.CauseCompaction)
			if err == nil {
				now = sim.Max(now, t)
				e.LogPtr = ptr
				builtBytes += int64(e.EncodedSize() + 6)
			} else {
				// No log space at all: inline as a last resort.
				e.InLog = false
				e.Value = val
				builtBytes = candidate
			}
			continue
		}
		e.Value = readVal(e.LogPtr)
		d.vlog.invalidate(e.LogPtr, e.ValueLen)
		e.InLog = false
		e.LogPtr = 0
		builtBytes = candidate
		inlinedBytes += int64(e.ValueLen)
	}
	return ents, now
}

// writeLevel partitions the merged key-sorted entities into data segment
// groups, writes them to contiguous page runs, and installs level dst.
// Every group carries its index within this rebuild epoch and the final one
// a last-group flag, so recovery can tell a complete epoch from one torn by
// a power cut. A merge that produced no entities still writes a one-page
// empty-epoch marker when it consumed on-flash groups: without it, a crash
// after the inputs were erased would resurrect the level's previous epoch —
// un-deleting keys whose tombstones this merge just retired. So does a
// buffer flush that retires a live journal, whatever it consumed: the marker
// is then the only thing on flash that says the flush completed, and without
// it a crash would replay the journal over what the flush dropped.
//
// On error (the device filled mid-rebuild) the second result holds the
// entities that never reached flash, so the caller can requeue them; the
// groups installed before the failure stay mounted — they are valid, merely
// part of an epoch that never got its last-group flag.
func (d *Device) writeLevel(at sim.Time, dst int, ents []kv.Entity, flush bool) (sim.Time, []kv.Entity, error) {
	lv := d.levels[dst-1]
	if len(lv.groups) != 0 {
		panic("core: writeLevel into non-empty level")
	}
	// Log-before-tree ordering: entities about to become durable may hold
	// pointers into the value log's open page, which is still buffering in
	// DRAM (flush appends, fold write-backs). Program it first — otherwise a
	// power cut after this epoch completes but before the page lands leaves
	// the newest durable epoch referencing values that never reached flash,
	// while the epoch that held the previous versions is already superseded.
	now := at
	if d.vlog != nil && d.vlog.curPPA != nand.InvalidPPA {
		t, err := d.vlog.programOpen(now, nand.CauseCompaction)
		if err != nil {
			return t, ents, err
		}
		now = t
	}
	d.Epoch++ // stamp this rebuild's groups
	if flush {
		d.flushEpoch = d.Epoch
	}
	if len(ents) == 0 {
		if len(d.consumable) == 0 && !(flush && d.JournalLive()) {
			return now, nil, nil // nothing replaced, nothing to supersede
		}
		t, err := d.installGroup(now, dst, buildEmptyMarker(d.cfg.Geometry.PageSize), 0, true, nand.CauseCompaction)
		return t, nil, err
	}
	// All group programs are dispatched at the same instant — the level
	// rebuild runs across every die in parallel and completes when the
	// slowest page lands (the flash model serialises per-die contention).
	dispatch := now
	remaining := ents
	index := 0
	for len(remaining) > 0 {
		cut := takeGroup(remaining, d.cfg.Geometry.PageSize, d.cfg.GroupPages)
		bg := buildGroup(remaining[:cut], d.cfg.Geometry.PageSize, &d.gsc)
		// takeGroup sizes the prefix in key order, but pages fill in hash
		// order, whose bin packing can differ by a page; shrink until the
		// built group honours the block-bounded run size.
		for bg.g.numPages > d.cfg.GroupPages && cut > 1 {
			cut -= (cut + 15) / 16
			if cut < 1 {
				cut = 1
			}
			d.gsc.releasePages(bg.pages) // abandoned before programming
			bg = buildGroup(remaining[:cut], d.cfg.Geometry.PageSize, &d.gsc)
		}
		t, err := d.installGroup(dispatch, dst, bg, index, cut == len(remaining), nand.CauseCompaction)
		if err != nil {
			return t, remaining, err
		}
		d.gsc.releasePages(bg.pages) // the array copied what it keeps
		remaining = remaining[cut:]
		index++
		now = sim.Max(now, t)
	}
	return now, nil, nil
}

// requeueEntities returns merged entities that could not be written to the
// memtable — after a mid-rebuild device-full their level inputs are already
// consumed, so the write buffer is the only remaining home. The memtable
// holds values, not pointers, so log-resident values are inlined and their
// log copies invalidated (deferred like any in-unit invalidation). The
// caller's own restore path (flush re-buffering its drained entries) runs
// afterwards and overwrites these with any newer buffered versions.
func (d *Device) requeueEntities(at sim.Time, ents []kv.Entity) sim.Time {
	now := at
	for i := range ents {
		e := &ents[i]
		switch {
		case e.Tombstone:
			d.MT.Delete(e.Key)
		case e.InLog:
			for _, ppa := range d.vlog.fragPages(e.LogPtr) {
				if ppa != d.vlog.curPPA {
					now = sim.Max(now, d.Arr.Read(at, d.vlog.phys(ppa), nand.CauseCompaction))
				}
			}
			v := append([]byte(nil), d.vlog.peek(e.LogPtr)...)
			d.vlog.invalidate(e.LogPtr, e.ValueLen)
			d.MT.Put(e.Key, v)
		default:
			d.MT.Put(e.Key, e.Value)
		}
	}
	return now
}

// buildEmptyMarker lays out the one-page marker group recording "this level
// is now empty" durably (count 0, one table page, no entities).
func buildEmptyMarker(pageSize int) *builtGroup {
	img := make([]byte, pageSize)
	extra := make([]byte, groupHdrSize)
	putGroupHeader(extra, groupMagic, 0, 1, 1, 0, 0, 0, 0)
	kv.NewPageWriter(img, extra)
	return &builtGroup{g: &group{numPages: 1, tablePages: 1, firstHash16: []uint16{}}, pages: [][]byte{img}}
}

// installGroup writes a built group's pages to a fresh contiguous run and
// adds it to level dst. A program failure mid-run retires the block as
// grown-bad: the partially-written copy is abandoned (its pages invalid;
// recovery discards it as torn) and the whole group is re-issued into a
// fresh run until it lands or the device is out of blocks.
func (d *Device) installGroup(at sim.Time, dst int, bg *builtGroup, index int, last bool, cause nand.Cause) (sim.Time, error) {
	g := bg.g
	// Patch the destination level, epoch and epoch position into the
	// persistent headers, then seal every page (the simulated controller's
	// ECC footer).
	flags := flushDistance(d.Epoch, d.flushEpoch) << 1
	if last {
		flags |= flagLastGroup
	}
	for p := 0; p < g.tablePages; p++ {
		extra := kv.OpenPage(bg.pages[p]).Extra()
		binary.LittleEndian.PutUint16(extra[2:], uint16(dst))
		binary.LittleEndian.PutUint32(extra[12:], d.Epoch)
		binary.LittleEndian.PutUint16(extra[16:], uint16(index))
		binary.LittleEndian.PutUint16(extra[18:], flags)
	}
	for _, img := range bg.pages {
		kv.SealPage(img)
	}
	var ppa nand.PPA
	var now sim.Time
	for {
		var err error
		ppa, err = d.nextRun(at, dst, g.numPages)
		if err != nil {
			return at, err
		}
		now = at
		failedAt := -1
		for p, img := range bg.pages {
			t, perr := d.Arr.Program(at, ppa+nand.PPA(p), img, cause)
			now = sim.Max(now, t)
			if perr != nil {
				failedAt = p
				break
			}
			d.Pool.MarkValid(ppa + nand.PPA(p))
		}
		if failedAt < 0 {
			break
		}
		// Abandon the torn copy and the grown-bad block's remainder.
		for p := 0; p < failedAt; p++ {
			d.Pool.MarkInvalid(ppa + nand.PPA(p))
		}
		d.groupStream(dst).Close()
	}
	g.firstPPA = ppa
	g.physBytes = int64(g.numPages) * int64(d.cfg.Geometry.PageSize)
	b := d.Arr.BlockOf(ppa)
	d.groupsAt[b] = append(d.groupsAt[b], g)

	lv := d.levels[dst-1]
	lv.groups = append(lv.groups, g)
	lv.bytes += g.physBytes
	d.Mem.MustReserve(dramLevelLabel, g.entryBytes())
	d.attachHashList(dst, g, bg.entityHashes)
	return now, nil
}

// nextRun allocates a contiguous page run from the level's stream,
// garbage-collecting on demand.
func (d *Device) nextRun(at sim.Time, level, n int) (nand.PPA, error) {
	s := d.groupStream(level)
	if ppa, ok := s.NextRun(n); ok {
		return ppa, nil
	}
	if _, err := d.EnsureFree(at, 1); err != nil {
		return 0, err
	}
	ppa, ok := s.NextRun(n)
	if !ok {
		return 0, kv.ErrDeviceFull
	}
	return ppa, nil
}

// attachHashList gives the freshly built group a hash list if DRAM allows,
// evicting hash lists from deeper levels first (the paper keeps hash lists
// for top levels, §4.2).
func (d *Device) attachHashList(dst int, g *group, hashes []uint32) {
	if d.cfg.NoHashLists {
		return
	}
	need := int64(4 * len(hashes))
	for !d.Mem.Reserve(dramHashLabel, need) {
		if !d.dropDeepestHashList(dst) {
			return // nothing lower-priority to drop: go without
		}
	}
	g.hashes = hashes
}

// dropDeepestHashList removes one hash list from the deepest level below
// dst holding one. It reports false when none exists.
func (d *Device) dropDeepestHashList(dst int) bool {
	for i := len(d.levels) - 1; i >= dst; i-- {
		for _, g := range d.levels[i].groups {
			if g.hashes != nil {
				d.Mem.Release(dramHashLabel, g.hashListBytes())
				g.hashes = nil
				return true
			}
		}
	}
	return false
}

// DRAM ledger labels.
const (
	dramLevelLabel = "levellist"
	dramHashLabel  = "hashlist"
)

// deepestBelow reports whether every level deeper than dst is empty.
func (d *Device) deepestBelow(dst int) bool {
	for i := dst; i < len(d.levels); i++ {
		if len(d.levels[i].groups) > 0 {
			return false
		}
	}
	return true
}

// ensureLogRoom keeps the value log under its trigger threshold before a
// flush appends valueBytes more, running log-triggered compactions as
// needed (§4.4 "Log-triggered Compaction").
func (d *Device) ensureLogRoom(at sim.Time, valueBytes int64) (sim.Time, error) {
	// Fully dead log blocks (hot keys overwrite their old values quickly)
	// are erased in place first — reclamation, not compaction, is the
	// common case for skewed writes.
	now, _ := d.vlog.reclaim(at)
	for tries := 0; tries < 4 && !d.vlog.roomFor(valueBytes); tries++ {
		t, ok, err := d.logCompact(now)
		now = t
		if err != nil {
			return now, err
		}
		if !ok {
			break // nothing left to fold; proceed and let the cap stretch
		}
	}
	return now, nil
}

// logCompact runs one log-triggered compaction: pick the source level, merge
// it into the next one folding log values into groups, then erase fully
// dead log blocks.
func (d *Device) logCompact(at sim.Time) (sim.Time, bool, error) {
	// When the log is full of *live* bytes, defragmentation cannot create
	// room: values must be disposed into the tree. Fold into the deepest
	// value-owning level (rarely rewritten). Otherwise the log is full of
	// garbage and the policy picks the cheapest reclaim source.
	var liveLog int64
	for _, lv := range d.levels {
		liveLog += lv.logValid()
	}
	disposal := liveLog > d.vlog.capacityBytes()*3/4

	var src int
	if disposal {
		src = -1
		var best int64
		for i, lv := range d.levels {
			if v := lv.logValid(); v > best {
				best, src = v, i+1
			}
		}
	} else {
		src = d.pickLogCompactSource()
	}
	if src < 0 {
		return at, false, nil
	}
	d.St.LogCompactions++
	opts := compactOpts{inlineLog: true, fromLog: true}
	if d.cfg.Plus && !disposal {
		opts.alphaCut = int64(alpha * float64(d.threshold(src+1)))
	}
	pending, now := d.readLevelEntities(at, src-1, nand.CauseCompaction)
	now, err := d.compactInto(now, src+1, pending, opts)
	if err != nil {
		return now, false, err
	}
	now, _ = d.vlog.reclaim(now)
	return now, true, nil
}

// pickLogCompactSource chooses the level whose compaction frees the most
// log space: base AnyKey takes the level with the most *valid* log bytes;
// AnyKey+ the level with the most *invalid* log bytes (falling back to the
// base rule when no invalidations have been seen). Returns -1 when the tree
// holds no log-resident values.
func (d *Device) pickLogCompactSource() int {
	pick := func(metric func(*level) int64) int {
		best, bestScore := -1, int64(0)
		for i, lv := range d.levels {
			if len(lv.groups) == 0 {
				continue
			}
			if s := metric(lv); s > bestScore {
				best, bestScore = i+1, s
			}
		}
		return best
	}
	if d.cfg.Plus {
		// AnyKey+ scores levels by invalid log bytes normalised by the
		// physical compaction cost, so reclaiming churn-heavy levels never
		// costs more than it frees; ties and cold starts fall back to the
		// base rule.
		if b := pick(func(lv *level) int64 {
			if lv.logInvalid == 0 {
				return 0
			}
			return lv.logInvalid - lv.bytes
		}); b > 0 {
			return b
		}
	}
	return pick(func(lv *level) int64 { return lv.logValid() })
}
