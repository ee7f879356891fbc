// Package ftl provides the flash-translation-layer substrate shared by both
// KV-SSD designs: a free-block pool, append-only allocation streams (one
// active block per stream, so pages written together land together — the
// property AnyKey's group-granular GC relies on, paper §4.4 "GC"), page
// validity accounting, and greedy victim selection for garbage collection.
package ftl

import (
	"fmt"

	"anykey/internal/nand"
	"anykey/internal/sim"
)

// Region tags the purpose a block is allocated for, so GC policies can be
// applied per region (data segment groups vs value log vs meta segments vs
// the write-buffer journal).
type Region int8

// Regions used by the designs in this repository.
const (
	RegionNone Region = iota // free / never allocated
	RegionData               // data segments / data segment groups
	RegionMeta               // PinK meta segments
	RegionLog                // AnyKey value log
	// RegionBad parks blocks retired as grown-bad with no live contents
	// left: they cannot be erased, so they never return to the free list
	// and no victim selection considers them. A grown-bad block that still
	// holds live data keeps its original region (reads work fine) until GC
	// relocates the data out and Release retires it here.
	RegionBad
	// RegionJournal holds the write-buffer journal pages a durable sync
	// programs (internal/device/lsm). Its blocks die whole when a buffer
	// flush retires the journal and are erased without relocation.
	RegionJournal
)

var regionNames = [...]string{"none", "data", "meta", "log", "bad", "journal"}

// String returns the region's lowercase name.
func (r Region) String() string {
	if r < 0 || int(r) >= len(regionNames) {
		return fmt.Sprintf("region(%d)", int(r))
	}
	return regionNames[r]
}

// Pool manages the erase blocks of one flash array: which are free, which
// region owns each, and how many valid pages each holds.
type Pool struct {
	arr   *nand.Array
	geo   nand.Geometry
	free  []nand.BlockID
	owner []Region
	// valid page accounting; a page is "valid" while its owner still needs
	// its contents. Owners flip validity as they overwrite or migrate data.
	validBits  []uint64
	validCount []int32
	active     map[nand.BlockID]bool // stream-open blocks, exempt from GC
	wear       []int32               // erase count per block
}

// NewPool builds a pool over arr with every block free.
func NewPool(arr *nand.Array) *Pool {
	geo := arr.Geometry()
	p := &Pool{
		arr:        arr,
		geo:        geo,
		owner:      make([]Region, geo.Blocks()),
		validBits:  make([]uint64, (geo.Pages()+63)/64),
		validCount: make([]int32, geo.Blocks()),
		active:     make(map[nand.BlockID]bool),
		wear:       make([]int32, geo.Blocks()),
	}
	p.free = make([]nand.BlockID, 0, geo.Blocks())
	for i := 0; i < geo.Blocks(); i++ {
		b := nand.BlockID(i)
		// Blocks already grown-bad (a Reopen over an array that failed
		// programs/erases in a previous life) are parked, never freed.
		// Recovery may still find live data in them and re-own them via
		// AdoptBad.
		if arr.Bad(b) {
			p.owner[b] = RegionBad
			continue
		}
		p.free = append(p.free, b)
	}
	return p
}

// FreeBlocks returns the number of unallocated blocks.
func (p *Pool) FreeBlocks() int { return len(p.free) }

// TotalBlocks returns the pool's block count.
func (p *Pool) TotalBlocks() int { return p.geo.Blocks() }

// BlocksIn returns how many blocks are currently owned by region r.
func (p *Pool) BlocksIn(r Region) int {
	n := 0
	for _, o := range p.owner {
		if o == r {
			n++
		}
	}
	return n
}

// Owner returns the region owning block b.
func (p *Pool) Owner(b nand.BlockID) Region { return p.owner[b] }

// Alloc takes a free block for region r, preferring the least-worn free
// block (static wear levelling). It reports false when the pool is
// exhausted; callers must then garbage-collect before retrying.
func (p *Pool) Alloc(r Region) (nand.BlockID, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.wear[p.free[i]] < p.wear[p.free[best]] {
			best = i
		}
	}
	b := p.free[best]
	p.free[best] = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.owner[b] = r
	return b, true
}

// Release erases block b on the array at time at and returns it to the free
// list. Any still-valid pages are an owner bug and panic. When the erase
// fails (or the block was already grown-bad), the block is retired to
// RegionBad instead of being freed — from the owner's point of view Release
// still "worked": the block's contents were dead and it will never be
// allocated again.
func (p *Pool) Release(at sim.Time, b nand.BlockID, cause nand.Cause) sim.Time {
	if p.owner[b] == RegionNone {
		panic(fmt.Sprintf("ftl: release of free block %d", b))
	}
	if p.validCount[b] != 0 {
		panic(fmt.Sprintf("ftl: release of block %d with %d valid pages", b, p.validCount[b]))
	}
	done, err := p.arr.Erase(at, b, cause)
	// Clear any stale valid bits (all should be clear already).
	first := int(b) * p.geo.PagesPerBlock
	for i := 0; i < p.geo.PagesPerBlock; i++ {
		p.clearBit(nand.PPA(first + i))
	}
	p.active[b] = false
	if err != nil {
		p.owner[b] = RegionBad
		return done
	}
	p.wear[b]++
	p.owner[b] = RegionNone
	p.free = append(p.free, b)
	return done
}

// MarkValid records that the contents of ppa are live.
func (p *Pool) MarkValid(ppa nand.PPA) {
	if p.bit(ppa) {
		return
	}
	p.setBit(ppa)
	p.validCount[p.arr.BlockOf(ppa)]++
}

// MarkInvalid records that the contents of ppa are dead. Idempotent.
func (p *Pool) MarkInvalid(ppa nand.PPA) {
	if !p.bit(ppa) {
		return
	}
	p.clearBit(ppa)
	p.validCount[p.arr.BlockOf(ppa)]--
}

// Valid reports whether ppa is marked live.
func (p *Pool) Valid(ppa nand.PPA) bool { return p.bit(ppa) }

// ValidPages returns the number of live pages in block b.
func (p *Pool) ValidPages(b nand.BlockID) int { return int(p.validCount[b]) }

// Victim returns the non-stream-active block of region r with the fewest
// valid pages, preferring fully-invalid blocks (which can be erased with no
// relocation at all — the common case for AnyKey, §4.4). It reports false
// when region r has no eligible block.
func (p *Pool) Victim(r Region) (nand.BlockID, bool) {
	best := nand.BlockID(-1)
	bestValid := int32(1 << 30)
	for i := range p.owner {
		b := nand.BlockID(i)
		if p.owner[i] != r || p.active[b] {
			continue
		}
		if p.validCount[b] < bestValid {
			bestValid = p.validCount[b]
			best = b
			if bestValid == 0 {
				break
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// VictimBelow is like Victim but only returns blocks whose valid-page count
// is at most maxValid, letting callers skip GC that would mostly relocate.
func (p *Pool) VictimBelow(r Region, maxValid int) (nand.BlockID, bool) {
	b, ok := p.Victim(r)
	if !ok || p.ValidPages(b) > maxValid {
		return 0, false
	}
	return b, true
}

func (p *Pool) bit(ppa nand.PPA) bool {
	return p.validBits[ppa/64]&(1<<(uint(ppa)%64)) != 0
}
func (p *Pool) setBit(ppa nand.PPA)   { p.validBits[ppa/64] |= 1 << (uint(ppa) % 64) }
func (p *Pool) clearBit(ppa nand.PPA) { p.validBits[ppa/64] &^= 1 << (uint(ppa) % 64) }

// Stream is an append-only page allocator bound to one region: it fills one
// block at a time so that pages appended consecutively share blocks.
type Stream struct {
	pool   *Pool
	region Region
	cur    nand.BlockID
	open   bool
}

// NewStream returns a stream allocating from pool into region r.
func NewStream(pool *Pool, r Region) *Stream {
	return &Stream{pool: pool, region: r}
}

// NextPage returns the PPA the caller should program next. It reports false
// when the pool has no free block to continue into; the caller must GC and
// retry. The returned page is not yet marked valid — callers mark it after
// programming.
func (s *Stream) NextPage() (nand.PPA, bool) {
	if s.open && s.pool.arr.FreePagesIn(s.cur) > 0 {
		idx := s.pool.geo.PagesPerBlock - s.pool.arr.FreePagesIn(s.cur)
		return s.pool.arr.PageOf(s.cur, idx), true
	}
	if s.open {
		s.pool.active[s.cur] = false
		s.open = false
	}
	b, ok := s.pool.Alloc(s.region)
	if !ok {
		return 0, false
	}
	s.cur = b
	s.open = true
	s.pool.active[b] = true
	return s.pool.arr.PageOf(b, 0), true
}

// CurrentBlock returns the block being filled; ok is false when no block is
// open yet.
func (s *Stream) CurrentBlock() (nand.BlockID, bool) { return s.cur, s.open }

// Close releases the stream's claim on its current block so GC may consider
// it. Remaining pages in the block stay unwritten until the block is erased.
func (s *Stream) Close() {
	if s.open {
		s.pool.active[s.cur] = false
		s.open = false
	}
}

// RunStream allocates runs of physically consecutive pages that never cross
// an erase-block boundary — the allocation pattern of AnyKey's data segment
// groups, which combine neighbouring pages of one block (paper §4.1). When a
// block's remainder cannot hold the requested run, the remainder is
// abandoned (those pages stay unwritten until the block is erased) and a
// fresh block is opened.
type RunStream struct {
	pool   *Pool
	region Region
	cur    nand.BlockID
	next   int
	open   bool
}

// NewRunStream returns a run allocator for region r.
func NewRunStream(pool *Pool, r Region) *RunStream {
	return &RunStream{pool: pool, region: r}
}

// NextRun returns the first PPA of n consecutive pages within one block. It
// reports false when no block can satisfy the request; n must not exceed
// the block size.
func (s *RunStream) NextRun(n int) (nand.PPA, bool) {
	if n <= 0 || n > s.pool.geo.PagesPerBlock {
		panic(fmt.Sprintf("ftl: run of %d pages impossible with %d-page blocks", n, s.pool.geo.PagesPerBlock))
	}
	if s.open && s.pool.geo.PagesPerBlock-s.next >= n {
		ppa := s.pool.arr.PageOf(s.cur, s.next)
		s.next += n
		return ppa, true
	}
	if s.open {
		s.pool.active[s.cur] = false
		s.open = false
	}
	b, ok := s.pool.Alloc(s.region)
	if !ok {
		return 0, false
	}
	s.cur = b
	s.open = true
	s.next = n
	s.pool.active[b] = true
	return s.pool.arr.PageOf(b, 0), true
}

// Close releases the stream's claim on its current block.
func (s *RunStream) Close() {
	if s.open {
		s.pool.active[s.cur] = false
		s.open = false
	}
}

// SetActive marks or unmarks a block as in-use by an allocator that manages
// its pages directly (e.g. AnyKey's value log), exempting it from victim
// selection while set.
func (p *Pool) SetActive(b nand.BlockID, on bool) { p.active[b] = on }

// Active reports whether b is currently exempt from victim selection.
func (p *Pool) Active(b nand.BlockID) bool { return p.active[b] }

// Adopt claims a specific free block for region r during recovery, when the
// owner is derived from on-flash contents rather than allocation order. A
// grown-bad block may be adopted too — a block retired by a program failure
// can still hold live pages written before the failure; it is re-owned so
// reads and validity accounting work, stays off the free list, and returns
// to RegionBad when its contents die and Release retires it again.
func (p *Pool) Adopt(b nand.BlockID, r Region) {
	if p.owner[b] == RegionBad && p.arr.Bad(b) {
		p.owner[b] = r
		return
	}
	if p.owner[b] != RegionNone {
		panic(fmt.Sprintf("ftl: adopt of owned block %d", b))
	}
	for i, fb := range p.free {
		if fb == b {
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			p.owner[b] = r
			return
		}
	}
	panic(fmt.Sprintf("ftl: adopt of missing block %d", b))
}

// --- wear accounting and levelling ------------------------------------------

// Wear returns the erase count of block b. Flash blocks endure a bounded
// number of program/erase cycles; the paper's device-lifetime argument
// (Fig. 13) is exactly about how many of these the FTL burns.
func (p *Pool) Wear(b nand.BlockID) int { return int(p.wear[b]) }

// WearStats summarises the pool's erase-count distribution.
type WearStats struct {
	Min, Max int
	Total    int64
	Mean     float64
	Spread   int // Max - Min, the wear-levelling quality metric
	ByRegion map[Region]int64
}

// WearStats computes the current distribution.
func (p *Pool) WearStats() WearStats {
	st := WearStats{Min: 1 << 30, ByRegion: make(map[Region]int64)}
	for b, w := range p.wear {
		wi := int(w)
		if wi < st.Min {
			st.Min = wi
		}
		if wi > st.Max {
			st.Max = wi
		}
		st.Total += int64(wi)
		st.ByRegion[p.owner[b]] += int64(wi)
	}
	if len(p.wear) > 0 {
		st.Mean = float64(st.Total) / float64(len(p.wear))
	}
	if st.Min == 1<<30 {
		st.Min = 0
	}
	st.Spread = st.Max - st.Min
	return st
}
