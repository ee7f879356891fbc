// Package pink implements the PinK baseline: the state-of-the-art
// LSM-tree-based KV-SSD design the paper compares against (§2.2, Fig. 4).
//
// PinK keeps pinned level lists in DRAM; each level-list entry points at a
// meta segment — one flash page worth of sorted (key → data location)
// records. Meta segments live in DRAM while the budget lasts (top levels
// first) and spill to flash otherwise, which is exactly the behaviour that
// collapses under low-v/k workloads: large keys inflate the meta segments
// past the DRAM budget, every lookup then pays extra flash reads, and
// compaction must re-read and re-write flash-resident meta segments.
//
// KV pairs themselves are stored in data segment pages written once at
// flush (L0→L1) time; compaction merges metadata only, so overwritten
// values linger in data blocks until garbage collection relocates the
// still-live neighbours — the paper's Table 3 shows this GC dominating
// PinK's flash traffic.
package pink

import (
	"fmt"

	"anykey/internal/device"
	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// Config parameterises a PinK device: exactly the shared platform, nothing
// design-specific.
type Config = lsm.Config

// Device is a simulated PinK KV-SSD. The embedded front-end owns the
// platform state and the write-buffer path shared with AnyKey; everything
// declared here is PinK's own metadata and value placement (§2.2). Sync is
// the front-end's as is: meta segments and data pages are already
// flash-resident, so the write buffer is PinK's only volatile state.
type Device struct {
	lsm.Front

	levels     []*level
	dataStream *ftl.Stream
	// metaStreams allocates meta segment pages per level, so a level rebuild
	// leaves whole blocks dead and reclaimable without relocation.
	metaStreams map[int]*ftl.Stream

	// The data-page L2P indirection and per-page slot liveness, keyed by
	// the never-reused logical page number. This is conventional FTL
	// bookkeeping (page map + OOB validity), not charged against the KV
	// metadata DRAM budget.
	nextSeq   uint64
	l2p       map[uint64]nand.PPA
	p2l       map[nand.PPA]uint64
	liveSlots map[uint64][]bool
	// slotStats tracks per data block how many record slots exist and how
	// many are still live, steering GC toward slot-level garbage that page
	// validity cannot see.
	slotStats map[nand.BlockID]*blockSlots

	// segAt maps a flash-resident meta segment's page to the segment, for
	// GC relocation of meta blocks.
	segAt map[nand.PPA]*metaSegment

	// mergeBuf is the reusable output scratch for mergeRecords; only one
	// merged run is live at a time.
	mergeBuf []record
	// arena recycles page build buffers when the flash array copies rather
	// than retains programmed images (flyweight payload store).
	arena *nand.PageArena
}

var _ device.KVSSD = (*Device)(nil)

// New builds an empty PinK device.
func New(cfg Config) (*Device, error) {
	cfg.Defaults()
	front, err := lsm.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	d := &Device{
		Front:       front,
		metaStreams: make(map[int]*ftl.Stream),
		l2p:         make(map[uint64]nand.PPA),
		p2l:         make(map[nand.PPA]uint64),
		liveSlots:   make(map[uint64][]bool),
		slotStats:   make(map[nand.BlockID]*blockSlots),
		segAt:       make(map[nand.PPA]*metaSegment),
	}
	d.Hooks = lsm.Hooks{
		Flush:        d.flush,
		ReclaimEmpty: d.reclaimEmpty,
		GCOnce:       d.gcOnce,
		// Space-pressure watermark: keep at least ~6% of the device free, so
		// slot-level garbage in data pages is continuously collected instead
		// of accumulating until the device jams. (Real FTLs run background GC
		// against exactly such a watermark.)
		FreeWatermark: d.Pool.TotalBlocks() / 16,
	}
	d.dataStream = ftl.NewStream(d.Pool, ftl.RegionData)
	d.arena = nand.NewPageArena(cfg.Geometry.PageSize, 8, !d.Arr.Retains())
	return d, nil
}

// threshold returns the byte-size threshold of level i (1-based).
func (d *Device) threshold(i int) int64 {
	t := d.Cfg.MemtableBytes
	for ; i > 0; i-- {
		t *= int64(d.Cfg.GrowthFactor)
	}
	return t
}

// Put implements device.KVSSD.
func (d *Device) Put(at sim.Time, key, value []byte) (sim.Time, error) {
	done, old, existed, err := d.StagePut(at, key, value)
	if err != nil {
		return at, err
	}
	if !existed {
		if _, dup := d.lookupLoc(key); !dup {
			d.St.LiveKeys++
			d.St.LiveBytes += int64(len(key) + len(value))
		} else {
			d.St.LiveBytes += int64(len(value)) - d.liveValueLen(key)
		}
	} else {
		d.St.LiveBytes += int64(len(value)) - int64(len(old.Value))
	}
	return d.FlushGate(at, done)
}

// liveValueLen returns the length of the key's current on-flash value, 0 if
// absent; used only for LiveBytes accounting.
func (d *Device) liveValueLen(key []byte) int64 {
	loc, ok := d.lookupLoc(key)
	if !ok {
		return 0
	}
	ppa, ok := d.l2p[loc.seq()]
	if !ok {
		panic("pink: newest record dangles")
	}
	pr := kv.OpenPage(d.Arr.PageData(ppa))
	e, err := pr.Entity(loc.slot())
	if err != nil {
		panic(err)
	}
	return int64(e.Len())
}

// Delete implements device.KVSSD.
func (d *Device) Delete(at sim.Time, key []byte) (sim.Time, error) {
	done, e, ok, err := d.StageDelete(at, key)
	if err != nil {
		return at, err
	}
	if ok && !e.Tombstone {
		d.St.LiveKeys--
		d.St.LiveBytes -= int64(len(key) + len(e.Value))
	} else if !ok {
		if _, found := d.lookupLoc(key); found {
			d.St.LiveKeys--
			d.St.LiveBytes -= int64(len(key)) + d.liveValueLen(key)
		}
	}
	return d.FlushGate(at, done)
}

// Get implements device.KVSSD.
func (d *Device) Get(at sim.Time, key []byte) ([]byte, sim.Time, error) {
	v, now, done, err := d.BeginGet(at, key)
	if done {
		return v, now, err
	}
	defer func() { d.St.ReadAccesses.Record(d.OpReads) }()

	for _, lv := range d.levels {
		seg := lv.findSegment(key)
		if seg == nil {
			continue
		}
		data, t := d.segmentData(now, seg, nand.CauseMeta)
		now = t
		rec, ok := findRecord(data, key)
		if !ok {
			continue // overlapping range miss: search the next level
		}
		if rec.tombstone() {
			return nil, now, kv.ErrNotFound
		}
		ppa, mapped := d.l2p[rec.loc.seq()]
		if !mapped {
			panic("pink: newest record dangles")
		}
		now = d.Arr.Read(now, ppa, nand.CauseUser)
		d.OpReads++
		pr := kv.OpenPage(d.Arr.PageData(ppa))
		e, err := pr.Entity(rec.loc.slot())
		if err != nil {
			panic(fmt.Sprintf("pink: corrupt data page %d: %v", ppa, err))
		}
		if kv.Compare(e.Key, key) != 0 {
			panic("pink: meta record points at wrong key")
		}
		return e.Value, now, nil
	}
	return nil, now, kv.ErrNotFound
}

// segmentData returns the page image of a meta segment, charging a flash
// read when it is not in the DRAM cache, and bumps the per-op access
// counter.
func (d *Device) segmentData(at sim.Time, seg *metaSegment, cause nand.Cause) ([]byte, sim.Time) {
	if seg.cached {
		return d.Arr.PageData(seg.ppa), at
	}
	done := d.Arr.Read(at, seg.ppa, cause)
	d.OpReads++
	return d.Arr.PageData(seg.ppa), done
}

// lookupLoc finds the key's current data location across all levels without
// charging any time; it is used only for statistics bookkeeping.
func (d *Device) lookupLoc(key []byte) (dataLoc, bool) {
	for _, lv := range d.levels {
		seg := lv.findSegment(key)
		if seg == nil {
			continue
		}
		if rec, ok := findRecord(d.Arr.PageData(seg.ppa), key); ok {
			if rec.tombstone() {
				return 0, false
			}
			return rec.loc, true
		}
	}
	return 0, false
}

// Metadata implements device.KVSSD: level lists (DRAM), the persistent meta
// segments (always flash), and the DRAM cache covering their top levels
// (Fig. 11a, Table 1).
func (d *Device) Metadata() []device.MetaStructure {
	var levelList, segCache, segFlash int64
	for _, lv := range d.levels {
		for _, seg := range lv.segs {
			levelList += int64(len(seg.firstKey)) + levelEntryOverhead
			segFlash += int64(d.Cfg.Geometry.PageSize)
			if seg.cached {
				segCache += int64(d.Cfg.Geometry.PageSize)
			}
		}
	}
	return []device.MetaStructure{
		{Name: "level lists", Bytes: levelList, InDRAM: true},
		{Name: "meta segment cache (DRAM)", Bytes: segCache, InDRAM: true},
		{Name: "meta segments (flash)", Bytes: segFlash, InDRAM: false},
	}
}

// blockSlots is the live/total record-slot census of one data block.
type blockSlots struct{ live, total int32 }
