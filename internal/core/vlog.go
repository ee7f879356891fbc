package core

import (
	"fmt"

	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// vlog is AnyKey's value log (§4.3): an append-only flash area holding the
// values detached from data segment groups. Entities in groups carry a
// packed pointer (page PPA << 16 | record index) instead of the bytes, so
// tree compaction moves only key/pointer entities.
//
// Values pack byte-continuously: a record that does not fit the current
// page's remainder spans into following pages as a fragment chain (the
// continuation map is controller bookkeeping, like OOB metadata), so large
// values waste no space — a 4 KiB value consumes 4 KiB of log, not a page.
//
// The log never garbage-collects by relocation: space returns either when a
// block's values all die (it is erased in place) or when a log-triggered
// compaction folds a level's values back into its groups (§4.4). The
// maxBlocks limit is the *trigger* for log-triggered compaction, not a hard
// cap — AnyKey+'s write-back path may transiently overshoot it.
type vlog struct {
	d         *Device
	maxBlocks int

	cur  nand.BlockID
	next int // next page index to reserve in cur
	open bool

	// The open page: values accumulate in the device's DRAM write buffer
	// and the page programs when full, like any real flash write path.
	img    []byte
	w      *kv.PageWriter
	curPPA nand.PPA

	// pageValid tracks the live value bytes per log page, driving erase-in-
	// place reclamation of fully dead blocks.
	pageValid map[nand.PPA]int64

	// contMap chains a fragment's pointer to its continuation fragment.
	contMap map[uint64]uint64

	// seq numbers log pages in append order; persisted in each page's extra
	// so recovery can replay the stream and rebuild fragment chains.
	seq uint64

	// recBuf is the reusable fragment-record scratch for append: AppendRaw
	// copies the record into the page image, so nothing retains it.
	recBuf []byte

	// remap redirects a page's logical (pointer-visible) address to its
	// physical home when a program failure forced the sealed page image into
	// a different block. Pointers and liveness stay keyed by the logical
	// address; the physical one is used only to reach the flash cells. The
	// page header persists the logical address, so recovery rebuilds this
	// map from flash. Logical addresses of remapped pages sit in grown-bad
	// blocks, which are never erased or reallocated, so they can never
	// collide with future pages.
	remap map[nand.PPA]nand.PPA

	// lost marks pointers whose fragment chain a recovery could not resolve
	// (the value was acknowledged but its page never became durable before a
	// power cut). Read paths treat a lost pointer as absent at its level and
	// fall through to the key's older, durable version.
	lost map[uint64]struct{}
}

func newVlog(d *Device, maxBlocks int) *vlog {
	return &vlog{
		d:         d,
		maxBlocks: maxBlocks,
		pageValid: make(map[nand.PPA]int64),
		contMap:   make(map[uint64]uint64),
		remap:     make(map[nand.PPA]nand.PPA),
		lost:      make(map[uint64]struct{}),
		curPPA:    nand.InvalidPPA,
	}
}

// phys translates a logical log page address to its physical home.
func (v *vlog) phys(ppa nand.PPA) nand.PPA {
	if p, ok := v.remap[ppa]; ok {
		return p
	}
	return ppa
}

// isLost reports whether ptr references a value lost to a power cut.
func (v *vlog) isLost(ptr uint64) bool {
	_, bad := v.lost[ptr]
	return bad
}

// blocksUsed returns the log's current block footprint.
func (v *vlog) blocksUsed() int { return v.d.Pool.BlocksIn(ftl.RegionLog) }

// capacityBytes returns the log's trigger capacity in payload bytes.
func (v *vlog) capacityBytes() int64 {
	return int64(v.maxBlocks) * int64(v.d.cfg.Geometry.PagesPerBlock) *
		int64(pagePayload(v.d.cfg.Geometry.PageSize))
}

// roomFor reports whether appending n more value bytes stays within the
// log-triggered-compaction threshold.
func (v *vlog) roomFor(n int64) bool {
	payload := int64(pagePayload(v.d.cfg.Geometry.PageSize))
	ppb := int64(v.d.cfg.Geometry.PagesPerBlock)
	var free int64
	if v.open {
		if v.w != nil {
			// A page is buffering: its remainder is usable. (After a Sync
			// programs a partially-filled page, the block stays open but no
			// page is buffering.)
			free += int64(v.w.Free())
		}
		free += (ppb - int64(v.next)) * payload
	}
	free += int64(v.maxBlocks-v.blocksUsed()) * ppb * payload
	return free >= n+n/8 // keep a small slack so the trigger leads the wall
}

// Fragment records are self-describing: a marker byte distinguishes a
// value's first fragment (which also carries the total length) from a
// continuation, letting the recovery replay resynchronise across erased
// pages.
const (
	fragFirst byte = 0xF1
	fragCont  byte = 0xF2
)

// fragMinSpace: rotate rather than leave slivers.
const fragMinSpace = 64

// append stores one value, spanning pages as needed, and returns the packed
// pointer of its first fragment. The caller has checked roomFor; append
// only fails when the whole pool is exhausted.
func (v *vlog) append(at sim.Time, val []byte, cause nand.Cause) (uint64, sim.Time, error) {
	now := at
	remaining := val
	first := uint64(0)
	prev := uint64(0)
	for i := 0; ; i++ {
		if v.curPPA == nand.InvalidPPA || v.w.Free() < fragMinSpace {
			t, err := v.rotatePage(now, cause)
			if err != nil {
				return 0, t, err
			}
			now = t
		}
		// Headroom in this page for the fragment body.
		rec := v.recBuf[:0]
		if i == 0 {
			rec = append(rec, fragFirst)
			rec = kv.AppendUvarint(rec, uint64(len(val)))
		} else {
			rec = append(rec, fragCont)
		}
		avail := v.w.Free() - 2 - len(rec) - 3 // offset slot + headers
		if avail <= 0 {
			panic("core: vlog page headroom accounting")
		}
		chunk := remaining
		if len(chunk) > avail {
			chunk = chunk[:avail]
		}
		rec = kv.AppendUvarint(rec, uint64(len(chunk)))
		rec = append(rec, chunk...)
		if !v.w.AppendRaw(rec) {
			panic("core: vlog fragment append failed after sizing")
		}
		v.recBuf = rec[:0]
		ptr := uint64(v.curPPA)<<16 | uint64(v.w.Count()-1)
		v.pageValid[v.curPPA] += int64(len(chunk))
		if i == 0 {
			first = ptr
		} else {
			v.contMap[prev] = ptr
		}
		prev = ptr
		remaining = remaining[len(chunk):]
		if len(remaining) == 0 {
			return first, now, nil
		}
	}
}

// rotatePage programs the open page (if any) and reserves the next one.
func (v *vlog) rotatePage(at sim.Time, cause nand.Cause) (sim.Time, error) {
	now := at
	if v.curPPA != nand.InvalidPPA {
		t, err := v.programOpen(now, cause)
		now = t
		if err != nil {
			return now, err
		}
	}
	if !v.open || v.next >= v.d.cfg.Geometry.PagesPerBlock {
		if v.open {
			v.d.Pool.SetActive(v.cur, false)
			v.open = false
		}
		b, ok := v.d.Pool.Alloc(ftl.RegionLog)
		if !ok {
			// The global pool is dry; let the device GC the group area and
			// retry once.
			t, err := v.d.EnsureFree(now, 1)
			now = t
			if err != nil {
				return now, err
			}
			b, ok = v.d.Pool.Alloc(ftl.RegionLog)
			if !ok {
				return now, kv.ErrDeviceFull
			}
		}
		v.cur = b
		v.next = 0
		v.open = true
		v.d.Pool.SetActive(b, true)
	}
	v.curPPA = v.d.Arr.PageOf(v.cur, v.next)
	v.next++
	// The address is being reborn as a fresh log page: any lost-pointer or
	// remap state a previous life left behind is stale now.
	for ptr := range v.lost {
		if nand.PPA(ptr>>16) == v.curPPA {
			delete(v.lost, ptr)
		}
	}
	delete(v.remap, v.curPPA)
	v.img = make([]byte, v.d.cfg.Geometry.PageSize)
	extra := make([]byte, logPageHdrSize)
	putLogPageHeader(extra, v.seq, v.curPPA)
	v.seq++
	v.w = kv.NewPageWriter(v.img, extra)
	return now, nil
}

// On-flash log page header: magic, the page's position in the append stream
// (which recovery uses to re-order pages and rebuild fragment chains), and
// the page's logical address — normally its own PPA, but the original
// target when a program failure remapped the sealed image elsewhere.
const (
	logPageMagic   uint16 = 0x106A
	logPageHdrSize        = 18
)

func putLogPageHeader(extra []byte, seq uint64, logical nand.PPA) {
	put16(extra[0:], logPageMagic)
	for i := 0; i < 8; i++ {
		extra[2+i] = byte(seq >> (8 * i))
	}
	for i := 0; i < 8; i++ {
		extra[10+i] = byte(uint64(logical) >> (8 * i))
	}
}

// readLogPageHeader decodes a log page's header; ok is false for non-log
// pages.
func readLogPageHeader(extra []byte) (seq uint64, logical nand.PPA, ok bool) {
	if len(extra) < logPageHdrSize || get16(extra[0:]) != logPageMagic {
		return 0, 0, false
	}
	for i := 0; i < 8; i++ {
		seq |= uint64(extra[2+i]) << (8 * i)
	}
	var l uint64
	for i := 0; i < 8; i++ {
		l |= uint64(extra[10+i]) << (8 * i)
	}
	return seq, nand.PPA(l), true
}

// programOpen writes the open page to flash; pages whose values all died
// while buffered are still programmed (the transfer was already committed)
// but arrive dead. When the program fails (the block grew bad), the sealed
// image — which already carries its logical address in the header — is
// re-issued into a fresh block and the logical→physical remap recorded;
// the pointers handed out for this page stay valid unchanged.
func (v *vlog) programOpen(at sim.Time, cause nand.Cause) (sim.Time, error) {
	kv.SealPage(v.img)
	logical := v.curPPA
	phys := logical
	now := at
	for {
		t, err := v.d.Arr.Program(now, phys, v.img, cause)
		now = t
		if err == nil {
			break
		}
		v.d.Pool.SetActive(v.cur, false)
		v.open = false
		b, ok := v.d.Pool.Alloc(ftl.RegionLog)
		if !ok {
			t, ferr := v.d.EnsureFree(now, 1)
			now = t
			if ferr != nil {
				return now, ferr
			}
			b, ok = v.d.Pool.Alloc(ftl.RegionLog)
			if !ok {
				return now, kv.ErrDeviceFull
			}
		}
		v.cur = b
		v.next = 1
		v.open = true
		v.d.Pool.SetActive(b, true)
		phys = v.d.Arr.PageOf(b, 0)
	}
	if phys != logical {
		v.remap[logical] = phys
	}
	if v.pageValid[logical] > 0 {
		v.d.Pool.MarkValid(phys)
	} else {
		delete(v.pageValid, logical)
	}
	v.curPPA = nand.InvalidPPA
	v.img = nil
	v.w = nil
	return now, nil
}

// pageImage returns the page holding ppa (a logical log address) without
// charging time.
func (v *vlog) pageImage(ppa nand.PPA) []byte {
	if ppa == v.curPPA {
		return v.img
	}
	return v.d.Arr.PageData(v.phys(ppa))
}

// fragChunk decodes the self-describing fragment at ptr: whether it starts
// a value, the declared total length (first fragments only), and its chunk.
// Pointers on the live read paths always resolve; a failure is a bug.
func (v *vlog) fragChunk(ptr uint64) (first bool, total uint64, chunk []byte) {
	first, total, chunk, ok := v.fragChunkOK(ptr)
	if !ok {
		panic(fmt.Sprintf("core: corrupt log fragment at %d/%d", nand.PPA(ptr>>16), int(ptr&0xffff)))
	}
	return first, total, chunk
}

// fragChunkOK is the non-panicking decode used by recovery, which probes
// pointers that may reference reused or never-durable pages.
func (v *vlog) fragChunkOK(ptr uint64) (first bool, total uint64, chunk []byte, ok bool) {
	ppa := nand.PPA(ptr >> 16)
	slot := int(ptr & 0xffff)
	pr := kv.OpenPage(v.pageImage(ppa))
	if slot >= pr.Count() {
		return false, 0, nil, false
	}
	rec := pr.Record(slot)
	if len(rec) == 0 || (rec[0] != fragFirst && rec[0] != fragCont) {
		return false, 0, nil, false
	}
	first = rec[0] == fragFirst
	used := 1
	if first {
		var n int
		total, n = kv.Uvarint(rec[used:])
		if n <= 0 {
			return false, 0, nil, false
		}
		used += n
	}
	fragLen, n := kv.Uvarint(rec[used:])
	if n <= 0 || int(fragLen) > len(rec)-used-n {
		return false, 0, nil, false
	}
	used += n
	return first, total, rec[used : used+int(fragLen)], true
}

// read returns the value at ptr, charging one flash read per touched page
// (dispatched in parallel); reads of the still-buffered open page are DRAM
// hits. charged reports whether any flash read happened.
func (v *vlog) read(at sim.Time, ptr uint64, cause nand.Cause) (val []byte, done sim.Time, charged bool) {
	now := at
	chargePage := func(ppa nand.PPA) {
		if ppa == v.curPPA {
			return
		}
		now = sim.Max(now, v.d.Arr.Read(at, v.phys(ppa), cause))
		charged = true
	}
	chargePage(nand.PPA(ptr >> 16))
	_, total, chunk := v.fragChunk(ptr)
	if uint64(len(chunk)) == total {
		return chunk, now, charged
	}
	out := make([]byte, 0, total)
	out = append(out, chunk...)
	cur := ptr
	for uint64(len(out)) < total {
		next, ok := v.contMap[cur]
		if !ok {
			panic("core: broken log fragment chain")
		}
		chargePage(nand.PPA(next >> 16))
		_, _, chunk := v.fragChunk(next)
		out = append(out, chunk...)
		cur = next
	}
	return out, now, charged
}

// peek assembles the value at ptr without timing (bookkeeping and
// batch-read paths that charged the pages already).
func (v *vlog) peek(ptr uint64) []byte {
	_, total, chunk := v.fragChunk(ptr)
	if uint64(len(chunk)) == total {
		return chunk
	}
	out := make([]byte, 0, total)
	out = append(out, chunk...)
	cur := ptr
	for uint64(len(out)) < total {
		next := v.contMap[cur]
		_, _, c := v.fragChunk(next)
		out = append(out, c...)
		cur = next
	}
	return out
}

// fragPages lists every page a record at ptr touches (for batch reads).
func (v *vlog) fragPages(ptr uint64) []nand.PPA {
	pages := []nand.PPA{nand.PPA(ptr >> 16)}
	_, total, chunk := v.fragChunk(ptr)
	got := uint64(len(chunk))
	cur := ptr
	for got < total {
		next, ok := v.contMap[cur]
		if !ok {
			panic("core: broken log fragment chain")
		}
		pages = append(pages, nand.PPA(next>>16))
		_, _, c := v.fragChunk(next)
		got += uint64(len(c))
		cur = next
	}
	return pages
}

// invalidate records the death of the value at ptr across all its
// fragments. Pages whose last value bytes die are marked invalid; fully
// dead blocks are erased by reclaim. While a compaction unit is open the
// invalidation only queues: applying it immediately could let reclaim erase
// log blocks the previous (still on-flash) level epoch references, which a
// power cut mid-merge would then need. Lost pointers carry no liveness and
// are ignored.
func (v *vlog) invalidate(ptr uint64, valLen int) {
	if v.isLost(ptr) {
		return
	}
	if v.d.invalDefer {
		v.d.pendingInval = append(v.d.pendingInval, pendingInval{ptr: ptr, valLen: valLen})
		return
	}
	cur := ptr
	remaining := uint64(valLen)
	for {
		ppa := nand.PPA(cur >> 16)
		_, _, chunk := v.fragChunk(cur)
		v.dropBytes(ppa, int64(len(chunk)))
		remaining -= uint64(len(chunk))
		if remaining == 0 {
			break
		}
		next, ok := v.contMap[cur]
		if !ok {
			panic("core: broken log fragment chain in invalidate")
		}
		delete(v.contMap, cur)
		cur = next
	}
}

func (v *vlog) dropBytes(ppa nand.PPA, n int64) {
	rem, ok := v.pageValid[ppa]
	if !ok || rem < n {
		panic(fmt.Sprintf("core: log invalidate underflow at page %d: %d - %d", ppa, rem, n))
	}
	rem -= n
	if rem == 0 {
		delete(v.pageValid, ppa)
		if ppa != v.curPPA {
			v.d.Pool.MarkInvalid(v.phys(ppa))
		}
	} else {
		v.pageValid[ppa] = rem
	}
}

// reclaim erases every fully dead log block.
func (v *vlog) reclaim(at sim.Time) (sim.Time, bool) {
	now := at
	freed := false
	for {
		b, ok := v.d.Pool.VictimBelow(ftl.RegionLog, 0)
		if !ok {
			break
		}
		now = v.d.Pool.Release(now, b, nand.CauseLog)
		freed = true
	}
	return now, freed
}
