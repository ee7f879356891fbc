package nand

import (
	"encoding/binary"

	"anykey/internal/kv"
	"anykey/internal/payload"
)

// The flyweight payload store keeps programmed pages as skeletons with
// regenerable byte ranges excised, instead of full images. Two kinds of
// range are excised:
//
//   - workload value bytes, which are pure functions of a seed the payload
//     intern registry resolves (inline entity values, and value-log fragment
//     chunks — including chunks that continue a value from the previous log
//     page, resumed through the stream state saved when that page was
//     stored);
//
//   - the zero gap between a page's last record and its offset table
//     (partially filled pages programmed by Sync or small flushes).
//
// Every excision is verified at program time by regenerating the bytes and
// comparing: a hash collision, an evicted registry entry or a misparsed
// record can only leave bytes in the skeleton (costing memory), never
// corrupt them. get() therefore returns images byte-identical to what was
// programmed, and simulations are bit-for-bit the same as with the raw
// store — the golden-equivalence tests in the root package pin exactly
// that.
//
// Materialised images are cached under an LRU byte budget. Buffers are
// immutable and never recycled: eviction drops the cache's reference only,
// so a caller still holding an aliased slice (a GET's value, compaction
// entities, a log peek) keeps the buffer alive through the garbage
// collector — preserving the array-wide "page buffers are never mutated,
// erase only drops the reference" contract.

// Mirrors of the owners' on-flash formats the parser recognises. These are
// optimisation hints, not load-bearing layout knowledge: if an owner format
// drifts, parsing fails verification and pages fall back to raw storage —
// more memory, same bytes.
const (
	flyLogMagic  uint16 = 0x106A // core/vlog.go logPageMagic
	flyLogHdrLen        = 18     // magic u16 | seq u64 LE | logical PPA u64 LE
	flyFragFirst byte   = 0xF1   // core/vlog.go fragFirst
	flyFragCont  byte   = 0xF2   // core/vlog.go fragCont
)

// splice is one excised byte range of a page: [off, off+n) regenerates by
// filling from state. state 0 means zero-fill (the trailing free gap).
type splice struct {
	off   uint32
	n     uint32
	state uint64
}

// flyPage is one stored page: the page bytes with every splice range
// removed, plus the splices (ascending offset). A nil splices slice marks a
// raw fallback page whose skel is the complete image.
type flyPage struct {
	skel    []byte
	splices []splice
}

// flyPageOverhead approximates the fixed per-live-page cost: the flyPage
// struct, its pointer in the page table, and allocator rounding.
const flyPageOverhead = 64

// pendingWindow bounds the continuation-state map: states are kept for the
// most recent pendingWindow log pages, comfortably covering the program of
// the next page in the append stream (and its grown-bad re-issue).
const pendingWindow = 128

type flyweightStore struct {
	geo   Geometry
	pages []*flyPage

	live     int64
	resident int64
	rawPages int64

	mat matCache

	// pending maps a log page seq to the payload stream state at the start
	// of that page's continuation fragment (always record 0), recorded when
	// the previous page in the stream was stored.
	pending  map[uint64]payload.State
	pendSeqs []uint64

	// scratch for verification-free zero checks and entity decoding.
	ent kv.Entity

	released bool
}

func newFlyweightStore(geo Geometry, cacheBudget int64) *flyweightStore {
	payload.Enable()
	return &flyweightStore{
		geo:     geo,
		pages:   make([]*flyPage, geo.Pages()),
		mat:     newMatCache(cacheBudget),
		pending: make(map[uint64]payload.State, pendingWindow),
	}
}

func (s *flyweightStore) retains() bool { return false }

func (s *flyweightStore) written(ppa PPA) bool {
	return !s.released && s.pages[ppa] != nil
}

func (s *flyweightStore) set(ppa PPA, data []byte) {
	if s.released {
		panic("nand: page store used after release")
	}
	if s.pages[ppa] != nil {
		// Unreachable through Array.Program (program-without-erase panics
		// upstream), but keep the accounting safe.
		s.drop(ppa)
	}
	fp := s.parse(data)
	s.pages[ppa] = fp
	s.live++
	s.resident += s.pageBytes(fp)
	if fp.splices == nil {
		s.rawPages++
	}
}

func (s *flyweightStore) get(ppa PPA) []byte {
	if s.released {
		panic("nand: page store used after release")
	}
	fp := s.pages[ppa]
	if fp == nil {
		return nil
	}
	if fp.splices == nil {
		return fp.skel // raw fallback: the skeleton IS the image
	}
	if img := s.mat.get(ppa); img != nil {
		return img
	}
	img := s.materialize(fp)
	s.mat.put(ppa, img)
	return img
}

func (s *flyweightStore) clear(first PPA, n int) {
	if s.released {
		return
	}
	for i := PPA(0); i < PPA(n); i++ {
		if s.pages[first+i] != nil {
			s.drop(first + i)
		}
	}
}

func (s *flyweightStore) drop(ppa PPA) {
	fp := s.pages[ppa]
	s.resident -= s.pageBytes(fp)
	s.live--
	if fp.splices == nil {
		s.rawPages--
	}
	s.pages[ppa] = nil
	s.mat.drop(ppa)
}

func (s *flyweightStore) release() {
	s.pages = nil
	s.pending = nil
	s.pendSeqs = nil
	s.mat = newMatCache(0)
	s.live, s.resident, s.rawPages = 0, 0, 0
	s.released = true
}

func (s *flyweightStore) pageBytes(fp *flyPage) int64 {
	return int64(len(fp.skel)) + int64(16*len(fp.splices)) + flyPageOverhead
}

func (s *flyweightStore) footprint() StoreFootprint {
	return StoreFootprint{
		Mode:             MemoryFlyweight,
		LivePages:        s.live,
		LogicalBytes:     s.live * int64(s.geo.PageSize),
		ResidentBytes:    s.resident,
		RawFallbackPages: s.rawPages,
		CacheBytes:       s.mat.bytes,
		CacheHits:        s.mat.hits,
		CacheMisses:      s.mat.misses,
	}
}

// --- parsing --------------------------------------------------------------

// parse builds the flyweight representation of a freshly programmed page.
// It never retains data (callers may recycle the buffer) and falls back to
// a raw copy whenever the page cannot be safely skeletonised.
func (s *flyweightStore) parse(data []byte) *flyPage {
	splices := s.findSplices(data)
	if len(splices) == 0 {
		return &flyPage{skel: append([]byte(nil), data...)}
	}
	var excised int
	for _, sp := range splices {
		excised += int(sp.n)
	}
	skel := make([]byte, 0, len(data)-excised)
	pos := 0
	for _, sp := range splices {
		skel = append(skel, data[pos:sp.off]...)
		pos = int(sp.off) + int(sp.n)
	}
	skel = append(skel, data[pos:]...)
	return &flyPage{skel: skel, splices: splices}
}

// findSplices walks the page's records looking for verified regenerable
// ranges. Any structural inconsistency aborts to raw storage.
func (s *flyweightStore) findSplices(data []byte) []splice {
	pr := kv.OpenPage(data)
	if !pr.Verify() {
		return nil // torn or unsealed page: keep the exact bytes
	}
	count := pr.Count()
	lo, hi := pr.PayloadBounds()
	if count < 0 || hi < lo || hi > len(data) {
		return nil
	}

	// The log-page header tells us the page's position in the value-log
	// append stream, which keys cross-page fragment continuation states.
	extra := pr.Extra()
	isLog := false
	var seq uint64
	if len(extra) >= flyLogHdrLen && binary.LittleEndian.Uint16(extra) == flyLogMagic {
		isLog = true
		seq = binary.LittleEndian.Uint64(extra[2:])
	}

	var splices []splice
	end := lo // running end of the parsed record region
	for i := 0; i < count; i++ {
		off := pr.RecordOffset(i)
		if off != end || off > hi {
			return nil // non-contiguous records: not a layout we know
		}
		next := hi
		if i+1 < count {
			next = pr.RecordOffset(i + 1)
		}
		if next < off || next > hi {
			return nil
		}
		rec := data[off:next]
		var used int
		if isLog {
			used = s.spliceFragment(rec, off, i, count, seq, &splices)
		} else {
			used = s.spliceEntity(rec, off, &splices)
		}
		if used <= 0 {
			return nil // undecodable record: keep the whole page raw
		}
		if i+1 < count && used != len(rec) {
			return nil // record length disagrees with the offset table
		}
		end = off + used
	}

	// The gap between the last record and the offset table is zero by
	// construction (writers fill zeroed buffers); verify and excise it.
	if gap := hi - end; gap >= payload.PrefixLen {
		allZero := true
		for _, b := range data[end:hi] {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			splices = append(splices, splice{off: uint32(end), n: uint32(gap)})
		}
	}
	return splices
}

// spliceEntity decodes rec as a KV entity and, when its inline value
// verifies against the intern registry, appends the value range as a
// splice. Returns the record's decoded length, or 0 when undecodable.
func (s *flyweightStore) spliceEntity(rec []byte, off int, splices *[]splice) int {
	n, err := kv.DecodeEntityInto(&s.ent, rec)
	if err != nil {
		return 0
	}
	e := &s.ent
	if e.Tombstone || e.InLog || len(e.Value) < payload.MinLookup {
		return n
	}
	seed, ok := payload.Lookup(e.Value)
	if !ok {
		return n
	}
	if _, ok := payload.Start(seed).VerifyFrom(e.Value); !ok {
		return n
	}
	// The inline value is the encoding's final field: its page range is the
	// record's tail.
	vOff := off + n - len(e.Value)
	*splices = append(*splices, splice{
		off:   uint32(vOff),
		n:     uint32(len(e.Value)),
		state: uint64(payload.Start(seed)),
	})
	return n
}

// spliceFragment decodes rec as a value-log fragment record. First
// fragments resolve through the intern registry; continuation fragments
// (always record 0 of their page) resume from the state saved when the
// previous page in the log stream was stored. The state after a fragment
// that spills past this page is saved for the next seq.
func (s *flyweightStore) spliceFragment(rec []byte, off, idx, count int, seq uint64, splices *[]splice) int {
	if len(rec) == 0 || (rec[0] != flyFragFirst && rec[0] != flyFragCont) {
		return 0
	}
	first := rec[0] == flyFragFirst
	used := 1
	var total uint64
	if first {
		t, n := kv.Uvarint(rec[used:])
		if n <= 0 {
			return 0
		}
		total = t
		used += n
	}
	fragLen, n := kv.Uvarint(rec[used:])
	if n <= 0 || int(fragLen) > len(rec)-used-n {
		return 0
	}
	used += n
	chunk := rec[used : used+int(fragLen)]
	recLen := used + int(fragLen)

	var st payload.State
	verified := false
	if first {
		if seed, ok := payload.Lookup(chunk); ok {
			if after, ok := payload.Start(seed).VerifyFrom(chunk); ok {
				st, verified = payload.Start(seed), true
				if uint64(len(chunk)) < total && idx == count-1 {
					s.savePending(seq+1, after)
				}
			}
		}
	} else if idx == 0 {
		if start, ok := s.pending[seq]; ok {
			if after, ok := start.VerifyFrom(chunk); ok {
				st, verified = start, true
				if idx == count-1 {
					// The continuation may itself continue (values spanning
					// three or more pages).
					s.savePending(seq+1, after)
				}
			}
		}
	}
	if verified && len(chunk) >= payload.PrefixLen {
		*splices = append(*splices, splice{
			off:   uint32(off + used),
			n:     uint32(len(chunk)),
			state: uint64(st),
		})
	}
	return recLen
}

// savePending records the continuation state for a log seq, retiring
// entries beyond the window.
func (s *flyweightStore) savePending(seq uint64, st payload.State) {
	if _, ok := s.pending[seq]; !ok {
		s.pendSeqs = append(s.pendSeqs, seq)
		if len(s.pendSeqs) > pendingWindow {
			old := s.pendSeqs[0]
			s.pendSeqs = s.pendSeqs[1:]
			delete(s.pending, old)
		}
	}
	s.pending[seq] = st
}

// --- materialisation ------------------------------------------------------

// materialize rebuilds the full page image from skeleton and splices. The
// result is byte-identical to the programmed image (parse verified every
// splice against the actual bytes).
func (s *flyweightStore) materialize(fp *flyPage) []byte {
	img := make([]byte, s.geo.PageSize)
	pos, si := 0, 0
	for _, sp := range fp.splices {
		n := copy(img[pos:sp.off], fp.skel[si:])
		si += n
		pos = int(sp.off)
		if sp.state != 0 {
			st := payload.State(sp.state)
			st.Fill(img[pos : pos+int(sp.n)])
			// Re-register ranges that start a stream, so values copied out
			// of this page and re-programmed elsewhere (compaction, GC
			// relocation, fold write-back, fleet rebuild) resolve again.
			// A state with its low bit set regenerates its own range from
			// Start(state), making it a valid seed for re-registration.
			if payload.Start(uint64(sp.state)) == st {
				payload.Note(img[pos:pos+int(sp.n)], uint64(sp.state))
			}
		}
		// state 0: zero gap, img is already zero-filled.
		pos += int(sp.n)
	}
	copy(img[pos:], fp.skel[si:])
	return img
}

// --- materialisation cache ------------------------------------------------

type matEntry struct {
	ppa        PPA
	img        []byte
	prev, next *matEntry
}

// matCache is a PPA-keyed LRU of materialised page images under a byte
// budget. Eviction only drops the cache's reference; buffers are immutable
// and survive through any aliases callers hold.
type matCache struct {
	byPPA        map[PPA]*matEntry
	head, tail   *matEntry
	bytes        int64
	budget       int64
	hits, misses int64
}

func newMatCache(budget int64) matCache {
	return matCache{byPPA: make(map[PPA]*matEntry), budget: budget}
}

func (c *matCache) get(ppa PPA) []byte {
	e := c.byPPA[ppa]
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.moveFront(e)
	return e.img
}

func (c *matCache) put(ppa PPA, img []byte) {
	e := &matEntry{ppa: ppa, img: img}
	c.byPPA[ppa] = e
	c.pushFront(e)
	c.bytes += int64(len(img))
	for c.bytes > c.budget && c.tail != nil && c.tail != c.head {
		c.evict(c.tail)
	}
}

func (c *matCache) drop(ppa PPA) {
	if e := c.byPPA[ppa]; e != nil {
		c.evict(e)
	}
}

func (c *matCache) evict(e *matEntry) {
	c.unlink(e)
	delete(c.byPPA, e.ppa)
	c.bytes -= int64(len(e.img))
}

func (c *matCache) pushFront(e *matEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *matCache) unlink(e *matEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *matCache) moveFront(e *matEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// defaultMatCacheBytes sizes the materialisation cache for a geometry.
func defaultMatCacheBytes(geo Geometry) int64 {
	b := geo.Capacity() / 1024
	const minB, maxB = 8 << 20, 128 << 20
	if b < minB {
		return minB
	}
	if b > maxB {
		return maxB
	}
	return b
}
