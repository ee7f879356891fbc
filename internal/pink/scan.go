package pink

import (
	"slices"

	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Scan implements device.KVSSD: a range query returning up to n pairs with
// key ≥ start. PinK's meta segments are key-sorted, so iteration order is
// cheap to produce, but the referenced values are scattered across data
// segment pages in write order — each emitted pair may touch a different
// flash page, which is why the paper's Fig. 18 shows PinK falling behind on
// long scans (§6.6).
//
// The k-way merge below looks like core's but is deliberately not shared
// with it: PinK's iterators join their reads into the scan clock with
// sim.Max, AnyKey's cursors thread one clock (now = t), and folding the two
// rules together would move pinned numbers.
func (d *Device) Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error) {
	if n <= 0 {
		return nil, at, nil
	}
	now := d.Admit(at, trace.CauseHostRead)

	iters := make([]*scanIter, 0, len(d.levels)+1)
	iters = append(iters, newMemScanIter(d.MT, start))
	for _, lv := range d.levels {
		it := newLevelScanIter(d, lv, start)
		now = sim.Max(now, it.opened(now))
		iters = append(iters, it)
	}

	out := d.ScanResult(n)
	for len(out) < n {
		// Find the smallest current key; priority to the earliest iterator
		// (memtable, then upper levels) on ties.
		best := -1
		for i, it := range iters {
			if !it.valid() {
				continue
			}
			if best < 0 || kv.Compare(it.key(), iters[best].key()) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		winner := iters[best]
		key := winner.key()
		tomb := winner.tombstone()
		var value []byte
		if !tomb {
			v, t := winner.value(now)
			now = sim.Max(now, t)
			value = v
		}
		// Advance every iterator positioned at this key (shadowed versions).
		for _, it := range iters {
			for it.valid() && kv.Compare(it.key(), key) == 0 {
				t := it.next(now)
				now = sim.Max(now, t)
			}
		}
		if !tomb {
			out = append(out, kv.Pair{Key: key, Value: value})
		}
	}
	return out, now, nil
}

// scanIter is a merged-cursor over one source (memtable or one level).
type scanIter struct {
	// memtable source: a lazy skiplist iterator — the device is
	// single-threaded and a scan never mutates the memtable, so no
	// snapshot copy is needed.
	memIt memtable.Iter

	// level source
	dev     *Device
	lv      *level
	segIdx  int
	recs    []record
	recIdx  int
	lastPPA nand.PPA // one-page read cache: consecutive hits are free

	// startKey holds the pending seek target between construction and the
	// first opened() call.
	startKey []byte
}

func newMemScanIter(mt *memtable.Table, start []byte) *scanIter {
	return &scanIter{memIt: mt.IterFrom(start), lastPPA: nand.InvalidPPA}
}

func newLevelScanIter(d *Device, lv *level, start []byte) *scanIter {
	it := &scanIter{dev: d, lv: lv, lastPPA: nand.InvalidPPA}
	// First segment that may contain keys ≥ start: the one containing start,
	// or the first segment after it.
	idx, _ := slices.BinarySearchFunc(lv.segs, start, func(s *metaSegment, k []byte) int {
		if kv.Compare(s.firstKey, k) > 0 {
			return 1
		}
		return -1
	})
	if idx > 0 {
		idx--
	}
	it.segIdx = idx
	it.pendingOpen(start)
	return it
}

// pendingOpen records that the iterator must open its current segment and
// skip to start; the read is charged on first use via opened().
func (it *scanIter) pendingOpen(start []byte) {
	it.recs = nil
	it.recIdx = 0
	it.startKey = start
}

// opened charges the first segment open.
func (it *scanIter) opened(at sim.Time) sim.Time {
	if it.dev == nil || it.segIdx >= len(it.lv.segs) {
		return at
	}
	return it.openSegment(at)
}

func (it *scanIter) openSegment(at sim.Time) sim.Time {
	seg := it.lv.segs[it.segIdx]
	now := at
	if !seg.cached {
		now = it.dev.Arr.Read(at, seg.ppa, nand.CauseMeta)
	}
	it.recs = decodeAllRecords(it.dev.Arr.PageData(seg.ppa))
	it.recIdx = 0
	if it.startKey != nil {
		it.recIdx, _ = slices.BinarySearchFunc(it.recs, it.startKey, func(r record, k []byte) int {
			if kv.Compare(r.key, k) >= 0 {
				return 1
			}
			return -1
		})
		it.startKey = nil
	}
	// An exhausted segment (all records < start) falls through to the next.
	for it.recIdx >= len(it.recs) {
		it.segIdx++
		if it.segIdx >= len(it.lv.segs) {
			return now
		}
		seg := it.lv.segs[it.segIdx]
		if !seg.cached {
			now = it.dev.Arr.Read(now, seg.ppa, nand.CauseMeta)
		}
		it.recs = decodeAllRecords(it.dev.Arr.PageData(seg.ppa))
		it.recIdx = 0
	}
	return now
}

func (it *scanIter) valid() bool {
	if it.dev == nil {
		return it.memIt.Valid()
	}
	return it.segIdx < len(it.lv.segs) && it.recIdx < len(it.recs)
}

func (it *scanIter) key() []byte {
	if it.dev == nil {
		return it.memIt.Entry().Key
	}
	return it.recs[it.recIdx].key
}

func (it *scanIter) tombstone() bool {
	if it.dev == nil {
		return it.memIt.Entry().Tombstone
	}
	return it.recs[it.recIdx].tombstone()
}

// value reads the pair's data page (cached single page per iterator) and
// returns the value bytes.
func (it *scanIter) value(at sim.Time) ([]byte, sim.Time) {
	if it.dev == nil {
		return it.memIt.Entry().Value, at
	}
	rec := it.recs[it.recIdx]
	now := at
	ppa, mapped := it.dev.l2p[rec.loc.seq()]
	if !mapped {
		panic("pink: scan winner record dangles")
	}
	if ppa != it.lastPPA {
		now = it.dev.Arr.Read(at, ppa, nand.CauseUser)
		it.lastPPA = ppa
	}
	pr := kv.OpenPage(it.dev.Arr.PageData(ppa))
	e, err := pr.Entity(rec.loc.slot())
	if err != nil {
		panic(err)
	}
	return e.Value, now
}

func (it *scanIter) next(at sim.Time) sim.Time {
	if it.dev == nil {
		it.memIt.Next()
		return at
	}
	it.recIdx++
	if it.recIdx >= len(it.recs) {
		it.segIdx++
		if it.segIdx < len(it.lv.segs) {
			return it.openSegment(at)
		}
	}
	return at
}
