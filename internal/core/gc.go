package core

import (
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// AnyKey garbage collection (§4.4): victims are relocated at data-segment-
// group granularity — the whole run of pages moves and only the group's
// first-page PPA in its level-list entry changes. Because a compaction
// invalidates its input groups together, and groups written together share
// blocks, most victims hold no valid data at all and are erased in place;
// the paper's Table 3 shows AnyKey's GC traffic at (or near) zero.
//
// Unlike PinK, this GC never consults records, so it is safe to run at any
// point, including in the middle of a compaction's writes.

// spillConsumable is the escape hatch for terminal space pressure inside a
// compaction unit: the crash-consistency deferrals (input groups parked on
// d.consumable, queued log invalidations) pin flash that GC could otherwise
// reclaim. Releasing them early shrinks the recovery window — a power cut
// between here and the unit's end loses the previous level epochs — but the
// alternative is reporting a full device that is not actually full. The
// trade is documented in DESIGN.md.
func (d *Device) spillConsumable() bool {
	if len(d.consumable) == 0 && len(d.pendingInval) == 0 {
		return false
	}
	d.releaseConsumed()
	d.drainInval()
	return true
}

// reclaimEmpty erases every fully dead block in the group area and the
// value log.
func (d *Device) reclaimEmpty(at sim.Time) (sim.Time, bool) {
	now := at
	reclaimed := false
	for {
		b, ok := d.Pool.VictimBelow(ftl.RegionData, 0)
		if !ok {
			break
		}
		now = d.Pool.Release(now, b, nand.CauseGC)
		reclaimed = true
	}
	if d.vlog != nil {
		t, freed := d.vlog.reclaim(now)
		now = t
		reclaimed = reclaimed || freed
	}
	return now, reclaimed
}

// gcOnce relocates the group-area victim with the fewest valid pages.
func (d *Device) gcOnce(at sim.Time) (sim.Time, bool, error) {
	b, ok := d.Pool.Victim(ftl.RegionData)
	if !ok {
		return at, false, nil
	}
	if d.Pool.ValidPages(b) >= d.cfg.Geometry.PagesPerBlock {
		return at, false, nil // nothing to gain
	}
	d.St.GCRuns++
	now := at
	// Relocate every group resident in the victim block, whole-group moves.
	groups := append([]*group(nil), d.groupsAt[b]...)
	for _, g := range groups {
		t, err := d.relocateGroup(now, g)
		if err != nil {
			return t, false, err
		}
		now = t
	}
	if len(d.groupsAt[b]) != 0 {
		panic("core: victim block still hosts groups after relocation")
	}
	if d.Pool.ValidPages(b) != 0 {
		panic("core: victim block still has valid pages after relocation")
	}
	end := d.Pool.Release(now, b, nand.CauseGC)
	if d.Tr != nil {
		d.Tr.Span(trace.BGTrack(trace.CauseGC), trace.EvGC,
			trace.CauseGC, at, at, end, int64(b))
	}
	return end, true, nil
}

// relocateGroup copies one group to a fresh contiguous run and updates its
// level-list entry's PPA.
func (d *Device) relocateGroup(at sim.Time, g *group) (sim.Time, error) {
	now := at
	imgs := make([][]byte, g.numPages)
	for p := 0; p < g.numPages; p++ {
		ppa := g.firstPPA + nand.PPA(p)
		now = sim.Max(now, d.Arr.Read(at, ppa, nand.CauseGC))
		imgs[p] = d.Arr.PageData(ppa)
	}
	// Allocate the new run directly from the GC stream; GC must not recurse
	// into itself, so a failure here (the reserve exists precisely to
	// prevent it) ends the operation. A program failure retires the
	// destination block as grown-bad and re-issues the whole copy elsewhere.
	var dst nand.PPA
	writeDone := now
	for {
		var ok bool
		dst, ok = d.groupStream(0).NextRun(g.numPages)
		if !ok {
			return now, kv.ErrDeviceFull
		}
		writeDone = now
		failedAt := -1
		for p, img := range imgs {
			// Page images are immutable once programmed; the same buffers are
			// programmed at the new location.
			t, err := d.Arr.Program(now, dst+nand.PPA(p), img, nand.CauseGC)
			writeDone = sim.Max(writeDone, t)
			if err != nil {
				failedAt = p
				break
			}
			d.Pool.MarkValid(dst + nand.PPA(p))
		}
		if failedAt < 0 {
			break
		}
		for p := 0; p < failedAt; p++ {
			d.Pool.MarkInvalid(dst + nand.PPA(p))
		}
		d.groupStream(0).Close()
	}
	d.St.GCRelocations += int64(g.numPages)

	// Detach from the old block.
	oldBlock := d.Arr.BlockOf(g.firstPPA)
	for p := 0; p < g.numPages; p++ {
		d.Pool.MarkInvalid(g.firstPPA + nand.PPA(p))
	}
	gs := d.groupsAt[oldBlock]
	for i, og := range gs {
		if og == g {
			d.groupsAt[oldBlock] = append(gs[:i], gs[i+1:]...)
			break
		}
	}
	if len(d.groupsAt[oldBlock]) == 0 {
		delete(d.groupsAt, oldBlock)
	}

	g.firstPPA = dst
	newBlock := d.Arr.BlockOf(dst)
	d.groupsAt[newBlock] = append(d.groupsAt[newBlock], g)
	return writeDone, nil
}
