package pink

import (
	"fmt"

	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// PinK garbage collection (§2.2, Table 3): compaction merges only metadata,
// so overwritten pairs linger in data segment pages until GC reclaims their
// blocks. For each live slot of a victim block, GC must decide whether the
// slot holds the key's *newest* version — a meta walk that reads every
// flash-resident meta segment it touches — and re-insert the survivors
// through the normal write path (they re-enter the write buffer and flow
// back out with the next flush). This is why the paper's Table 3 shows
// PinK's GC as a huge *read* count with no direct GC writes: the
// re-insertion writes surface as flush/compaction traffic.

// reclaimEmpty erases every fully-invalid block; it is safe at any point
// because it relocates nothing.
func (d *Device) reclaimEmpty(at sim.Time) (sim.Time, bool) {
	now := at
	reclaimed := false
	for _, region := range []ftl.Region{ftl.RegionData, ftl.RegionMeta} {
		for {
			b, ok := d.Pool.VictimBelow(region, 0)
			if !ok {
				break
			}
			now = d.Pool.Release(at, b, nand.CauseGC)
			reclaimed = true
		}
	}
	return now, reclaimed
}

// gcOnce picks the best victim across the data and meta regions and
// reclaims it. Data victims are chosen by *slot*-level garbage (page
// validity hides half-dead pages); meta victims by page validity. It
// reports whether reclaiming could free anything.
func (d *Device) gcOnce(at sim.Time) (sim.Time, bool, error) {
	dataV, dataFrac, dataOK := d.dataVictim()
	metaV, metaOK := d.Pool.Victim(ftl.RegionMeta)
	metaFrac := 1.0
	if metaOK {
		metaFrac = float64(d.Pool.ValidPages(metaV)) / float64(d.Cfg.Geometry.PagesPerBlock)
	}
	var pick nand.BlockID
	var meta bool
	switch {
	case dataOK && metaOK:
		if dataFrac <= metaFrac {
			pick = dataV
		} else {
			pick, meta = metaV, true
		}
	case dataOK:
		pick = dataV
	case metaOK:
		pick, meta = metaV, true
	default:
		return at, false, nil
	}
	liveFrac := dataFrac
	if meta {
		liveFrac = metaFrac
	}
	if liveFrac >= 0.97 {
		return at, false, nil // reclaiming would free almost nothing
	}
	d.St.GCRuns++
	var t sim.Time
	var err error
	if meta {
		t, err = d.gcMetaBlock(at, pick)
	} else {
		t, err = d.gcDataBlock(at, pick)
	}
	if err == nil && d.Tr != nil {
		d.Tr.Span(trace.BGTrack(trace.CauseGC), trace.EvGC,
			trace.CauseGC, at, at, t, int64(pick))
	}
	return t, err == nil, err
}

// dataVictim returns the non-active data block whose reclamation frees the
// most space: the cost of keeping the block is its whole page count, the
// cost of reclaiming it is rewriting the live slots — estimated via the
// block's current slot density — so the victim score is
// (live/total) × validPages/pagesPerBlock. Blocks whose pages all died were
// already pruned from the census (they reclaim for free via reclaimEmpty).
func (d *Device) dataVictim() (nand.BlockID, float64, bool) {
	best := nand.BlockID(-1)
	bestFrac := 2.0
	ppb := float64(d.Cfg.Geometry.PagesPerBlock)
	for b, ss := range d.slotStats {
		if d.Pool.Active(b) || ss.total == 0 {
			continue
		}
		f := float64(ss.live) / float64(ss.total) * float64(d.Pool.ValidPages(b)) / ppb
		// Ties break on block ID: map iteration order is randomized, and a
		// run must be reproducible for any victim choice among equals.
		if f < bestFrac || (f == bestFrac && b < best) {
			bestFrac = f
			best = b
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestFrac, true
}

// gcMetaBlock relocates the valid meta segment pages of a victim block
// (verbatim copies; only the segment locator changes).
func (d *Device) gcMetaBlock(at sim.Time, b nand.BlockID) (sim.Time, error) {
	now := at
	for i := 0; i < d.Cfg.Geometry.PagesPerBlock; i++ {
		ppa := d.Arr.PageOf(b, i)
		if !d.Pool.Valid(ppa) {
			continue
		}
		seg := d.segAt[ppa]
		if seg == nil {
			panic(fmt.Sprintf("pink: valid meta page %d has no segment", ppa))
		}
		now = d.Arr.Read(now, ppa, nand.CauseGC)
		img := d.Arr.PageData(ppa)
		dst, t, err := d.programPage(now, d.metaStream(d.levelOfSegment(seg)), img, nand.CauseGC)
		if err != nil {
			return now, err
		}
		now = t
		d.St.GCRelocations++
		d.Pool.MarkInvalid(ppa)
		delete(d.segAt, ppa)
		seg.ppa = dst
		d.Pool.MarkValid(dst)
		d.segAt[dst] = seg
	}
	return d.Pool.Release(now, b, nand.CauseGC), nil
}

// gcDataBlock reclaims a victim data block: every live slot is classified
// by a meta walk (newest version → re-inserted into the write buffer; a
// shadowed older version → dropped, leaving its record dangling until the
// next merge discards it). Flash-resident meta segments touched by the
// walks are each read once per GC run, which is the read amplification the
// paper's Table 3 reports for PinK's GC.
func (d *Device) gcDataBlock(at sim.Time, b nand.BlockID) (sim.Time, error) {
	now := at
	segsRead := make(map[*metaSegment]bool)

	for i := 0; i < d.Cfg.Geometry.PagesPerBlock; i++ {
		ppa := d.Arr.PageOf(b, i)
		if !d.Pool.Valid(ppa) {
			continue
		}
		seq, mapped := d.p2l[ppa]
		if !mapped {
			panic("pink: valid data page has no logical mapping")
		}
		live := d.liveSlots[seq]
		now = sim.Max(now, d.Arr.Read(at, ppa, nand.CauseGC))
		pr := kv.OpenPage(d.Arr.PageData(ppa))
		for slot, isLive := range live {
			if !isLive {
				continue
			}
			e, err := pr.Entity(slot)
			if err != nil {
				panic(err)
			}
			newest, t := d.newestLoc(now, e.Key, segsRead)
			now = t
			if newest == makeLoc(seq, slot) {
				// The newest on-flash version survives by re-insertion into
				// the write buffer — unless the buffer already holds an even
				// newer write for the key.
				if _, buffered := d.MT.Get(e.Key); !buffered {
					d.MT.Put(e.Key, e.Value)
					d.St.GCRelocations++
				}
			}
			// Shadowed versions are simply dropped; their records dangle
			// until the next merge discards them (invalidateLoc tolerates
			// the missing mapping).
		}
		d.dropPage(seq)
	}
	delete(d.slotStats, b)
	return d.Pool.Release(now, b, nand.CauseGC), nil
}

// newestLoc walks the levels top-down for key and returns the newest
// on-flash version's data location; tombstoneLoc (which never equals a live
// data slot) signals a deleted or absent key. Flash segments are charged
// once per GC run via segsRead.
func (d *Device) newestLoc(at sim.Time, key []byte, segsRead map[*metaSegment]bool) (dataLoc, sim.Time) {
	now := at
	for _, lv := range d.levels {
		seg := lv.findSegment(key)
		if seg == nil {
			continue
		}
		if !seg.cached && !segsRead[seg] {
			now = d.Arr.Read(now, seg.ppa, nand.CauseGC)
			segsRead[seg] = true
		}
		if rec, ok := findRecord(d.Arr.PageData(seg.ppa), key); ok {
			return rec.loc, now
		}
	}
	return tombstoneLoc, now
}
