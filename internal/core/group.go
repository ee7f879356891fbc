package core

import (
	"fmt"
	"slices"

	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/xxhash"
)

// group is the in-DRAM descriptor of one data segment group: exactly the
// level-list entry of §4.1 — the group's smallest key, the PPA of its first
// page, and the truncated hashes of the first entity on each page — plus the
// optional hash list and accounting fields.
//
// On flash the group occupies numPages consecutive pages of one block: the
// first tablePages hold the key-sorted {page, record} location table used by
// range queries (§4.4); the rest hold the KV entities sorted by key hash.
type group struct {
	smallest    []byte
	firstPPA    nand.PPA
	numPages    int
	tablePages  int
	firstHash16 []uint16 // one per entity page

	count    int
	bytes    int64 // logical key+value bytes of the group's entities
	logBytes int64 // bytes of this group's values currently in the value log
	// physBytes is the flash footprint (numPages × page size). Level
	// thresholds compare physical group bytes: values parked in the value
	// log do not count against the tree, which is what lets log-triggered
	// compaction (folding values INTO groups) push a level over its
	// threshold — the chain mechanism of Fig. 9.
	physBytes int64

	// hashes is the group's hash list: the sorted hashes of every entity,
	// maintained in leftover DRAM for top levels (§4.2). nil when dropped.
	hashes []uint32
}

// entryBytes is the DRAM footprint of the group's level-list entry: smallest
// key + first-page PPA (8 B) + per-page hash prefixes + bookkeeping (16 B).
func (g *group) entryBytes() int64 {
	return int64(len(g.smallest)) + 8 + int64(2*len(g.firstHash16)) + 16
}

// hashListBytes is the DRAM footprint of the hash list when present.
func (g *group) hashListBytes() int64 { return int64(4 * len(g.hashes)) }

// hashContains binary-searches the hash list. Hand-rolled (no sort.Search
// closure) because this probe runs once per level per GET.
func (g *group) hashContains(h uint32) bool {
	hs := g.hashes
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(hs) && hs[lo] == h
}

// entityPages returns the number of pages holding entities.
func (g *group) entityPages() int { return g.numPages - g.tablePages }

// entityPPA returns the PPA of entity page p (0-based among entity pages).
func (g *group) entityPPA(p int) nand.PPA {
	return g.firstPPA + nand.PPA(g.tablePages+p)
}

// level is one LSM level of the AnyKey tree. bytes is the *physical* flash
// footprint of its groups (see group.physBytes).
type level struct {
	groups []*group
	bytes  int64

	// logInvalid accumulates the bytes of value-log data invalidated while
	// referenced from this level — the AnyKey+ source-selection signal
	// (§4.6). It resets when the level is rebuilt.
	logInvalid int64
}

// findGroup returns the unique group whose key range may contain key.
func (lv *level) findGroup(key []byte) *group {
	gs := lv.groups
	lo, hi := 0, len(gs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kv.Compare(gs[mid].smallest, key) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	return gs[lo-1]
}

// logValid sums the level's live value-log bytes (the base AnyKey
// source-selection signal).
func (lv *level) logValid() int64 {
	var t int64
	for _, g := range lv.groups {
		t += g.logBytes
	}
	return t
}

// --- group construction -------------------------------------------------

// builtGroup is the output of the pure layout step: the descriptor (without
// a PPA) and the page images to program.
type builtGroup struct {
	g        *group
	pages    [][]byte
	logBytes int64
	// entityHashes feeds the hash-list budget decision after installation.
	entityHashes []uint32
}

// locEntrySize is the byte cost of one location-table entry: {entity page
// u16, record index u16}.
const locEntrySize = 4

// On-flash group header, stored at the start of every table page's extra
// region. It makes the whole DRAM metadata derivable from flash: a recovery
// scan finds group first pages by magic, reads the persisted level and
// shape, and rebuilds level lists, hash prefixes and hash lists (see
// recover.go).
const (
	groupMagic     uint16 = 0xA11E // first table page of a group
	groupContMagic uint16 = 0xA11F // continuation table page
	groupHdrSize          = 20     // magic u16, level u16, pages u16, tablePages u16, count u32, epoch u32, index u16, flags u16
)

// flagLastGroup marks the final group of its epoch. An epoch is complete —
// and eligible for recovery — only when groups 0..n-1 are all present,
// untorn, and group n-1 carries this flag. A power cut mid-writeLevel
// leaves the new epoch without its tail, so recovery falls back to the
// previous complete epoch instead of mounting half a level.
const flagLastGroup uint16 = 1 << 0

// The other fifteen flag bits hold the rebuild's distance, in epochs, from
// the L1 rebuild that carried the last completed buffer flush (0 for that
// rebuild itself). Rebuilds happen only inside flushes, a handful each, so
// the distance is small; flushDistanceUnknown stands for anything that does
// not fit and makes recovery draw no conclusion from the group.
const flushDistanceUnknown = 1<<15 - 1

func flushDistance(epoch, flushEpoch uint32) uint16 {
	if d := epoch - flushEpoch; d < flushDistanceUnknown {
		return uint16(d)
	}
	return flushDistanceUnknown
}

// putGroupHeader writes the header into a table page's extra prefix. The
// epoch stamps which writeLevel produced the group and index orders the
// groups within it: recovery keeps, per level, only the groups of the
// newest *complete* epoch (a level rebuild supersedes all of the level's
// earlier groups, but only once it is fully durable).
func putGroupHeader(extra []byte, magic uint16, level, pages, tablePages, count int, epoch uint32, index int, flags uint16) {
	put16(extra[0:], magic)
	put16(extra[2:], uint16(level))
	put16(extra[4:], uint16(pages))
	put16(extra[6:], uint16(tablePages))
	put32(extra[8:], uint32(count))
	put32(extra[12:], epoch)
	put16(extra[16:], uint16(index))
	put16(extra[18:], flags)
}

// groupHeader decodes a table page's header; ok is false when the page does
// not start a group (wrong or continuation magic).
type groupHeader struct {
	level, pages, tablePages int
	count                    int
	epoch                    uint32
	index                    int
	last                     bool
	// flushEpoch is the epoch of the last buffer flush completed when this
	// group was built (0 when the header does not say).
	flushEpoch uint32
}

func readGroupHeader(extra []byte) (groupHeader, bool) {
	if len(extra) < groupHdrSize || get16(extra[0:]) != groupMagic {
		return groupHeader{}, false
	}
	hdr := groupHeader{
		level:      int(get16(extra[2:])),
		pages:      int(get16(extra[4:])),
		tablePages: int(get16(extra[6:])),
		count:      int(get32(extra[8:])),
		epoch:      get32(extra[12:]),
		index:      int(get16(extra[16:])),
		last:       get16(extra[18:])&flagLastGroup != 0,
	}
	if dist := get16(extra[18:]) >> 1; dist != flushDistanceUnknown {
		hdr.flushEpoch = hdr.epoch - uint32(dist)
	}
	return hdr, true
}

func put16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func get16(b []byte) uint16    { return uint16(b[0]) | uint16(b[1])<<8 }
func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// pagePayload is the usable byte capacity of one page (header + CRC footer
// excluded).
func pagePayload(pageSize int) int { return pageSize - 10 }

// tableChunk is the location-table capacity of one page — the payload minus
// the persistent group header, aligned down to a whole number of entries so
// no entry straddles a page boundary.
func tableChunk(pageSize int) int {
	return (pagePayload(pageSize) - groupHdrSize) / locEntrySize * locEntrySize
}

// groupLayout computes, without building anything, whether the first count
// entities fit in at most maxPages pages, and how many pages they use.
func groupLayout(ents []kv.Entity, count, pageSize, maxPages int) (pages int, ok bool) {
	payload := pagePayload(pageSize)
	chunk := tableChunk(pageSize)
	tablePages := (count*locEntrySize + chunk - 1) / chunk
	entityPages := 0
	free := 0
	for i := 0; i < count; i++ {
		need := ents[i].EncodedSize() + 2
		if need > free {
			entityPages++
			free = payload
			if need > free {
				return 0, false // single entity larger than a page
			}
		}
		free -= need
	}
	total := tablePages + entityPages
	return total, total <= maxPages && entityPages > 0
}

// takeGroup selects the longest prefix of ents that fits one group and
// returns the cut index. ents must be non-empty and key-sorted.
//
// Page consumption is monotone in the prefix length (adding an entity never
// shrinks the entity pages or the location table), so a single forward scan
// tracking the incremental packing finds the cut in O(cut) — the old
// exponential-plus-binary search re-ran the O(n) layout O(log n) times.
func takeGroup(ents []kv.Entity, pageSize, maxPages int) int {
	payload := pagePayload(pageSize)
	chunk := tableChunk(pageSize)
	entityPages := 0
	free := 0
	for i := range ents {
		need := ents[i].EncodedSize() + 2
		if need > free {
			if need > payload {
				if i == 0 {
					panic(fmt.Sprintf("core: entity of %d bytes does not fit a group", ents[0].EncodedSize()))
				}
				return i // single entity larger than a page ends the prefix
			}
			entityPages++
			free = payload
		}
		free -= need
		tablePages := ((i+1)*locEntrySize + chunk - 1) / chunk
		if tablePages+entityPages > maxPages {
			if i == 0 {
				panic(fmt.Sprintf("core: entity of %d bytes does not fit a group", ents[0].EncodedSize()))
			}
			return i
		}
	}
	return len(ents)
}

// groupScratch holds buildGroup's transient per-call arrays so a compaction
// (which builds groups in a tight loop) reuses one set of allocations. The
// zero value is ready to use; a nil scratch allocates fresh arrays.
type groupScratch struct {
	order     []uint64
	tmp       []uint64 // radix-sort double buffer
	positions []pagePos
	pageOf    []int
	table     []byte
	extra     []byte // table-page header staging (copied into the image)
	firstHash []uint32
	lastHash  []uint32
	locs      []locEntry // readLocationTableInto output

	// arena recycles page-image buffers through build → program → release
	// when the flash array copies rather than retains programmed images.
	arena *nand.PageArena
}

// newPage returns a zeroed page image for buildGroup, recycled through the
// arena when one is attached.
func (sc *groupScratch) newPage(pageSize int) []byte {
	if sc.arena != nil {
		return sc.arena.Acquire()
	}
	return make([]byte, pageSize)
}

// releasePages hands images whose contents the flash array has copied (or
// that were abandoned before programming) back to the arena.
func (sc *groupScratch) releasePages(imgs [][]byte) {
	if sc.arena != nil {
		sc.arena.Release(imgs...)
	}
}

// pagePos is an entity's {page, record} slot within a group.
type pagePos struct{ page, rec uint16 }

// buildGroup lays out one data segment group from key-sorted entities:
// entities are re-sorted by hash, packed into pages behind the key-sorted
// location table, and the per-page hash prefixes and collision bits are
// derived (§4.1, Fig. 7). Everything retained past the call (page images,
// the descriptor, the hash list) is freshly allocated; sc only backs the
// transient layout arrays.
func buildGroup(ents []kv.Entity, pageSize int, sc *groupScratch) *builtGroup {
	if sc == nil {
		sc = &groupScratch{}
	}
	count := len(ents)
	payload := pagePayload(pageSize)

	// Hash order, ties broken by key for determinism. The input is key-sorted
	// with distinct keys, so breaking hash ties by input index yields exactly
	// the (hash, key) order. Packing hash<<32|index into one uint64 makes
	// that order total and the unique sorted permutation is by construction
	// the stable one. count is bounded far below 2^32 (it fits one group's
	// pages).
	if cap(sc.order) < count {
		sc.order = make([]uint64, count)
	}
	order := sc.order[:count]
	for i := range order {
		order[i] = uint64(ents[i].Hash)<<32 | uint64(i)
	}
	sortHashOrder(order, sc)

	// Assign entities to pages (same arithmetic as groupLayout).
	if cap(sc.positions) < count {
		sc.positions = make([]pagePos, count)
	}
	if cap(sc.pageOf) < count {
		sc.pageOf = make([]int, count)
	}
	positions := sc.positions[:count] // indexed by key order
	pageOf := sc.pageOf[:count]       // indexed by hash order
	entityPages := 0
	free := 0
	rec := 0
	for hi, o := range order {
		ki := int(o & 0xffffffff)
		need := ents[ki].EncodedSize() + 2
		if need > free {
			entityPages++
			free = payload
			rec = 0
		}
		free -= need
		pageOf[hi] = entityPages - 1
		positions[ki] = pagePos{page: uint16(entityPages - 1), rec: uint16(rec)}
		rec++
	}

	// Location table bytes, key order.
	table := sc.table[:0]
	for ki := 0; ki < count; ki++ {
		p := positions[ki]
		table = append(table, byte(p.page), byte(p.page>>8), byte(p.rec), byte(p.rec>>8))
	}
	sc.table = table
	chunk := tableChunk(pageSize)
	tablePages := (len(table) + chunk - 1) / chunk
	if count == 0 {
		panic("core: buildGroup with no entities")
	}

	g := &group{
		smallest:    append([]byte(nil), ents[0].Key...),
		numPages:    tablePages + entityPages,
		tablePages:  tablePages,
		firstHash16: make([]uint16, entityPages),
	}
	bg := &builtGroup{g: g, entityHashes: make([]uint32, 0, count)}

	// Table pages, each carrying the persistent group header (the level
	// field is patched at install time, when the destination is known).
	pages := make([][]byte, 0, g.numPages)
	for off := 0; off < len(table); off += chunk {
		end := off + chunk
		if end > len(table) {
			end = len(table)
		}
		img := sc.newPage(pageSize)
		if n := groupHdrSize + end - off; cap(sc.extra) < n {
			sc.extra = make([]byte, n)
		}
		extra := sc.extra[:groupHdrSize+end-off]
		magic := groupContMagic
		if off == 0 {
			magic = groupMagic
		}
		putGroupHeader(extra, magic, 0, tablePages+entityPages, tablePages, count, 0, 0, 0)
		copy(extra[groupHdrSize:], table[off:end])
		kv.NewPageWriter(img, extra)
		pages = append(pages, img)
	}

	// Entity pages. First/last hashes are recorded per page so the
	// continues-next pass below needs no entity re-decoding.
	var w *kv.PageWriter
	var img []byte
	var pageFirst, pageLast uint32 // first/last hash on current page
	var prevLast uint32
	if cap(sc.firstHash) < entityPages {
		sc.firstHash = make([]uint32, entityPages)
		sc.lastHash = make([]uint32, entityPages)
	}
	firstHash := sc.firstHash[:entityPages]
	lastHash := sc.lastHash[:entityPages]
	havePrev := false
	curPage := -1
	finishPage := func() {
		if curPage < 0 {
			return
		}
		var aux uint16
		if havePrev && pageFirst == prevLast {
			aux |= auxContinuesPrev
		}
		w.SetAux(aux)
		pages = append(pages, img)
		prevLast = pageLast
		havePrev = true
	}
	for hi, o := range order {
		e := &ents[int(o&0xffffffff)]
		if pageOf[hi] != curPage {
			finishPage()
			curPage = pageOf[hi]
			img = sc.newPage(pageSize)
			w = kv.NewPageWriter(img, nil)
			pageFirst = e.Hash
			firstHash[curPage] = e.Hash
			g.firstHash16[curPage] = xxhash.Prefix16(e.Hash)
		}
		if !w.AppendEntity(e) {
			panic("core: layout mismatch: entity does not fit its assigned page")
		}
		pageLast = e.Hash
		lastHash[curPage] = e.Hash
		g.count++
		g.bytes += int64(len(e.Key)) + int64(e.Len())
		if e.InLog {
			bg.logBytes += int64(e.ValueLen)
		}
		bg.entityHashes = append(bg.entityHashes, e.Hash)
	}
	finishPage()
	g.logBytes = bg.logBytes

	// Second pass for the continues-next bits: page p's last hash equals
	// page p+1's first hash.
	for p := 0; p+1 < entityPages; p++ {
		if lastHash[p] == firstHash[p+1] {
			rewriteAux(pages[tablePages+p], kv.OpenPage(pages[tablePages+p]).Aux()|auxContinuesNext)
		}
	}

	// entityHashes was appended in hash order above, so it is already the
	// sorted hash list the group needs.
	bg.pages = pages
	if len(pages) != g.numPages {
		panic(fmt.Sprintf("core: built %d pages, expected %d", len(pages), g.numPages))
	}
	return bg
}

// sortHashOrder sorts hash<<32|index composites ascending. Large runs use a
// stable LSD radix sort over the four hash bytes: the low 32 bits (input
// indices) are strictly increasing, so a stable sort by hash alone leaves
// hash ties in index order — the same total order slices.Sort produces on
// the full composite, at a fraction of the comparison-sort cost.
func sortHashOrder(order []uint64, sc *groupScratch) {
	if len(order) < 128 {
		slices.Sort(order)
		return
	}
	if cap(sc.tmp) < len(order) {
		sc.tmp = make([]uint64, len(order))
	}
	tmp := sc.tmp[:len(order)]
	src, dst := order, tmp
	for shift := 32; shift < 64; shift += 8 {
		var cnt [256]int
		for _, v := range src {
			cnt[(v>>shift)&0xff]++
		}
		sum := 0
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[cnt[b]] = v
			cnt[b]++
		}
		src, dst = dst, src
	}
	// Four passes: the final result landed back in the caller's slice.
}

// rewriteAux patches a finished page image's aux field in place (pages are
// sealed at install time, after all patches, so the CRC covers the final
// bits).
func rewriteAux(img []byte, v uint16) {
	img[2] = byte(v)
	img[3] = byte(v >> 8)
}

// locEntry is one location-table entry: an entity's {page, record} address
// in key order.
type locEntry = struct{ Page, Rec uint16 }

// readLocationTable decodes a group's location table from its table pages
// (already read by the caller), skipping each page's persistent header.
func readLocationTable(imgs [][]byte, count int) []locEntry {
	return readLocationTableInto(make([]locEntry, 0, count), imgs, count)
}

// readLocationTableInto is readLocationTable appending into dst's storage,
// for callers that consume the table before their next read.
func readLocationTableInto(dst []locEntry, imgs [][]byte, count int) []locEntry {
	out := dst
	for _, img := range imgs {
		extra := kv.OpenPage(img).Extra()[groupHdrSize:]
		for off := 0; off+locEntrySize <= len(extra); off += locEntrySize {
			out = append(out, locEntry{
				Page: uint16(extra[off]) | uint16(extra[off+1])<<8,
				Rec:  uint16(extra[off+2]) | uint16(extra[off+3])<<8,
			})
		}
	}
	if len(out)-len(dst) != count {
		panic(fmt.Sprintf("core: location table has %d entries, group has %d", len(out)-len(dst), count))
	}
	return out
}
