// Package core implements AnyKey, the paper's contribution: a KV-SSD whose
// metadata stays DRAM-resident for every workload type (§4).
//
// AnyKey groups KV pairs into data segment groups — runs of neighbouring
// flash pages within one block — and keeps metadata per *group* rather than
// per pair: each DRAM level-list entry holds only the group's smallest key,
// the PPA of its first page, and the truncated 16-bit hashes of the first
// entity on each page. Entities inside a group are sorted by the 32-bit
// xxHash of their keys, so a lookup binary-searches the per-page hash
// prefixes, reads exactly one page, and resolves rare prefix/hash ties with
// the per-page collision bits (Fig. 7). Per-group hash lists — sorted arrays
// of every hash in the group — fill the remaining DRAM top level first and
// eliminate fruitless flash reads from overlapping level ranges.
//
// Values are detached into a value log at flush time, so tree compaction
// moves only small key/pointer entities; a log-triggered compaction folds
// log values back into groups when the log fills. The Plus variant
// (AnyKey+) bounds that folding at α × the destination level's threshold and
// picks its source level by invalid log bytes, eliminating the compaction
// chains of §4.6. The NoValueLog variant (AnyKey−) is the §6.7 ablation.
package core

import (
	"anykey/internal/device"
	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
	"anykey/internal/xxhash"
)

// Config parameterises an AnyKey device. The fields are flat so callers can
// write one literal; the platform half is lsm.Config's, field for field.
type Config struct {
	Geometry nand.Geometry

	// DRAMBytes, MemtableBytes and GrowthFactor are as in lsm.Config: the
	// DRAM budget shared by level lists (pinned), the write buffer (pinned)
	// and hash lists (best effort); the L0 flush threshold; the level ratio.
	DRAMBytes     int64
	MemtableBytes int64
	GrowthFactor  int

	// GroupPages is the number of neighbouring flash pages combined into one
	// data segment group (paper default: 32 pages).
	GroupPages int

	// LogFraction is the share of the device's blocks reserved as the value
	// log area. The paper reserves half of the remaining SSD capacity
	// (§4.3), so the default is 0.5 — in steady state values live in the
	// log and tree compaction moves only key/pointer entities. Fig. 19
	// sweeps small logs (5–15 %) to show the cost of undersizing.
	LogFraction float64

	// Plus enables the AnyKey+ modified log-triggered compaction (§4.6).
	Plus bool

	// NoValueLog disables the value log entirely (the AnyKey− ablation of
	// §6.7): values are always inlined into data segment groups.
	NoValueLog bool

	// NoHashLists disables the per-group hash lists (§4.2 ablation): level
	// walks then read candidate groups even when the key is absent, like
	// other LSM designs without filters.
	NoHashLists bool

	// Memory, Seed and Tracer are as in lsm.Config. Reopen threads the
	// tracer through a power cycle and keeps the array's existing payload
	// store.
	Memory nand.MemoryMode
	Seed   int64
	Tracer *trace.Tracer
}

// platform is the lsm.Config view of the shared fields.
func (c *Config) platform() lsm.Config {
	return lsm.Config{
		Geometry: c.Geometry, Seed: c.Seed,
		DRAMBytes: c.DRAMBytes, MemtableBytes: c.MemtableBytes, GrowthFactor: c.GrowthFactor,
		Memory: c.Memory, Tracer: c.Tracer,
	}
}

// Defaults fills zero fields with the repository defaults: the platform's
// from lsm.Config.Defaults, then AnyKey's own.
func (c *Config) Defaults() {
	p := c.platform()
	p.Defaults()
	c.Geometry, c.Seed = p.Geometry, p.Seed
	c.DRAMBytes, c.MemtableBytes, c.GrowthFactor = p.DRAMBytes, p.MemtableBytes, p.GrowthFactor

	if c.GroupPages == 0 {
		c.GroupPages = 32
	}
	if c.GroupPages > c.Geometry.PagesPerBlock {
		c.GroupPages = c.Geometry.PagesPerBlock
	}
	if c.GroupPages < 4 {
		c.GroupPages = 4
	}
	if c.LogFraction == 0 {
		c.LogFraction = 0.50
	}
}

// Device is a simulated AnyKey / AnyKey+ / AnyKey− KV-SSD. The embedded
// front-end owns the platform state and the write-buffer path shared with
// PinK; everything declared here is what §4 adds.
type Device struct {
	lsm.Front
	cfg Config

	levels []*level
	// groupStreams allocates group page runs per level, so a level's
	// compaction invalidates whole blocks at once — the property behind
	// AnyKey's (near) zero-relocation GC (§4.4). Stream 0 is used by GC
	// relocation, which mixes levels by nature.
	groupStreams map[int]*ftl.RunStream
	vlog         *vlog

	// groupsAt indexes the groups stored in each block, for group-granular
	// GC relocation (§4.4).
	groupsAt map[nand.BlockID][]*group

	// The front-end's Epoch stamps each writeLevel invocation; persisted in
	// group headers so recovery can tell a level's current groups from
	// superseded ones. flushEpoch is the epoch of the L1 rebuild that carried
	// the last completed buffer flush: every rebuild persists its distance
	// from it, which is how recovery tells journal pages written since that
	// flush (stamped with an epoch no lower) from those it retired.
	flushEpoch uint32

	// Crash-consistency state for the open compaction unit (see
	// compactInto): while invalDefer is set, value-log invalidations queue
	// in pendingInval instead of applying, and the input groups a merge has
	// read sit on consumable with their flash pages still valid. Both drain
	// once the merge output is durable — or evaporate with DRAM on a power
	// cut, leaving the previous epochs intact for recovery.
	invalDefer   bool
	pendingInval []pendingInval
	consumable   []*group

	// recLogPages, live only while recover() runs, is the set of logical log
	// page addresses the scan actually found durable on flash; the liveness
	// walk uses it to tell a lost pointer from a resolvable one.
	recLogPages map[nand.PPA]bool

	// flushUnit is the physical byte size of one flushed memtable's
	// entities (running max): the base unit of the level thresholds. With
	// values detached into the log, the tree is sized by its key/pointer
	// entities — a deep but tiny tree, which is exactly why compaction
	// stays cheap (§4.3).
	flushUnit int64

	// mergeBuf is the reusable output scratch for mergeEntities: only one
	// merged run is live at a time, so compaction allocates no entity
	// headers in steady state.
	mergeBuf []kv.Entity
	// levelBufs are the rotating input scratches for readLevelEntities (see
	// its comment for why two suffice).
	levelBufs   [2][]kv.Entity
	levelBufIdx int
	// foldPages is foldLogValues' reusable page-accounting set.
	foldPages map[nand.PPA]bool
	// gsc backs buildGroup's and readLevelEntities' transient layout arrays.
	gsc groupScratch
	// scanPages is Scan's reusable single-read-per-page set.
	scanPages map[nand.PPA]bool
}

// pendingInval is one queued value-log invalidation.
type pendingInval struct {
	ptr    uint64
	valLen int
}

// drainInval applies every queued value-log invalidation. Called when a
// compaction unit's output is durable, and by EnsureFree under terminal
// space pressure (which trades the crash window for forward progress).
func (d *Device) drainInval() {
	q := d.pendingInval
	d.pendingInval = nil
	if d.vlog == nil {
		return
	}
	was := d.invalDefer
	d.invalDefer = false
	for _, pi := range q {
		d.vlog.invalidate(pi.ptr, pi.valLen)
	}
	d.invalDefer = was
}

var _ device.KVSSD = (*Device)(nil)

// New builds an empty AnyKey device.
func New(cfg Config) (*Device, error) { return newDevice(cfg, nil) }

// newDevice assembles the DRAM-side structures over arr — a fresh array when
// nil (New), the one that survived a power cycle otherwise (Reopen).
func newDevice(cfg Config, arr *nand.Array) (*Device, error) {
	cfg.Defaults()
	front, err := lsm.New(cfg.platform(), arr)
	if err != nil {
		return nil, err
	}
	d := &Device{
		Front:        front,
		cfg:          cfg,
		groupStreams: make(map[int]*ftl.RunStream),
		groupsAt:     make(map[nand.BlockID][]*group),
	}
	d.Hooks = lsm.Hooks{
		Flush:        d.flush,
		ReclaimEmpty: d.reclaimEmpty,
		GCOnce:       d.gcOnce,
		Spill:        d.spillConsumable,
	}
	if !cfg.NoValueLog {
		maxLogBlocks := int(float64(d.Pool.TotalBlocks()) * cfg.LogFraction)
		if maxLogBlocks < 2 {
			maxLogBlocks = 2
		}
		d.vlog = newVlog(d, maxLogBlocks)
	}
	// Recycle group build buffers only against a non-retaining (flyweight)
	// store; against the raw store the arena degrades to plain allocation.
	d.gsc.arena = nand.NewPageArena(cfg.Geometry.PageSize, 2*cfg.GroupPages, !d.Arr.Retains())
	return d, nil
}

// threshold returns the physical size bound of level i (1-based), in units
// of the physical flush size.
func (d *Device) threshold(i int) int64 {
	t := d.flushUnit
	if t == 0 {
		t = int64(d.cfg.Geometry.PageSize)
	}
	for ; i > 0; i-- {
		t *= int64(d.cfg.GrowthFactor)
	}
	return t
}

// Put implements device.KVSSD.
func (d *Device) Put(at sim.Time, key, value []byte) (sim.Time, error) {
	done, prev, had, err := d.StagePut(at, key, value)
	if err != nil {
		return at, err
	}
	d.accountPut(prev, had, key, value)
	return d.FlushGate(at, done)
}

// Delete implements device.KVSSD.
func (d *Device) Delete(at sim.Time, key []byte) (sim.Time, error) {
	done, prev, had, err := d.StageDelete(at, key)
	if err != nil {
		return at, err
	}
	d.accountDelete(prev, had, key)
	return d.FlushGate(at, done)
}

// accountPut adjusts the live-data counters after a memtable insert. prev is
// the entry the insert replaced (the memtable reports it so accounting does
// not repeat the skiplist search).
func (d *Device) accountPut(prev memtable.Entry, had bool, key, value []byte) {
	if had {
		if prev.Tombstone {
			d.St.LiveKeys++
			d.St.LiveBytes += int64(len(key) + len(value))
		} else {
			d.St.LiveBytes += int64(len(value)) - int64(len(prev.Value))
		}
		return
	}
	if ent, _, found := d.lookupEntity(key); found {
		d.St.LiveBytes += int64(len(value)) - int64(ent.Len())
		return
	}
	d.St.LiveKeys++
	d.St.LiveBytes += int64(len(key) + len(value))
}

func (d *Device) accountDelete(prev memtable.Entry, had bool, key []byte) {
	if had {
		if !prev.Tombstone {
			d.St.LiveKeys--
			d.St.LiveBytes -= int64(len(key) + len(prev.Value))
		}
		return
	}
	if ent, _, found := d.lookupEntity(key); found {
		d.St.LiveKeys--
		d.St.LiveBytes -= int64(len(key)) + int64(ent.Len())
	}
}

// Sync is the device-level FLUSH command: after it returns, every
// acknowledged write is persistent — in the tree or in the write-buffer
// journal — and Reopen recovers it.
func (d *Device) Sync(at sim.Time) (sim.Time, error) {
	end, err := d.Front.Sync(at)
	if err != nil {
		return at, err
	}
	// The value log's open page buffers the tail values in DRAM; a durable
	// sync programs it even partially filled.
	if d.vlog != nil && d.vlog.curPPA != nand.InvalidPPA {
		t, err := d.vlog.programOpen(end, nand.CauseFlush)
		if err != nil {
			return at, err
		}
		end = sim.Max(end, t)
		d.BgDoneAt = sim.Max(d.BgDoneAt, end)
	}
	return end, nil
}

// Get implements device.KVSSD: the read path of §4.4 — level-list walk,
// hash-list check, page pick via per-page hash prefixes, entity read, and a
// possible second flash access into the value log.
func (d *Device) Get(at sim.Time, key []byte) ([]byte, sim.Time, error) {
	v, now, done, err := d.BeginGet(at, key)
	if done {
		return v, now, err
	}
	defer func() { d.St.ReadAccesses.Record(d.OpReads) }()

	hash := xxhash.Sum32(key)
	for _, lv := range d.levels {
		g := lv.findGroup(key)
		if g == nil {
			continue
		}
		if g.hashes != nil && !g.hashContains(hash) {
			continue // hash list proves absence: no flash access
		}
		ent, t, found := d.searchGroup(now, g, key, hash, nand.CauseUser)
		now = t
		if !found {
			continue
		}
		if ent.InLog && d.vlog.isLost(ent.LogPtr) {
			// The pointed-to value never became durable before a power cut:
			// this version is gone; an older durable version (deeper level)
			// answers instead.
			continue
		}
		if ent.Tombstone {
			return nil, now, kv.ErrNotFound
		}
		if !ent.InLog {
			return ent.Value, now, nil
		}
		v, t2, charged := d.vlog.read(now, ent.LogPtr, nand.CauseUser)
		if charged {
			d.OpReads++
		}
		return v, t2, nil
	}
	return nil, now, kv.ErrNotFound
}

// searchGroup locates key within a data segment group: binary search the
// per-page first-entity hash prefixes, read the candidate page, and resolve
// prefix ambiguity (walk back) and hash-collision continuation (collision
// bits, Fig. 7) with at most a couple of extra reads.
func (d *Device) searchGroup(at sim.Time, g *group, key []byte, hash uint32, cause nand.Cause) (kv.Entity, sim.Time, bool) {
	h16 := xxhash.Prefix16(hash)
	// Candidate page: last page whose first-entity prefix ≤ h16.
	p := candidatePage(g.firstHash16, h16)
	if p < 0 {
		return kv.Entity{}, at, false
	}
	now := at
	for {
		ppa := g.entityPPA(p)
		now = d.Arr.Read(now, ppa, cause)
		d.OpReads++
		pr := kv.OpenPage(d.Arr.PageData(ppa))
		ent, stat := searchPageByHash(pr, key, hash)
		switch stat {
		case pageHit:
			return ent, now, true
		case pageBefore:
			// Every entity on this page hashes above the target: the match,
			// if any, is on an earlier page — possible only when that page
			// shares the 16-bit prefix.
			if p == 0 || g.firstHash16[p] != h16 {
				return kv.Entity{}, now, false
			}
			p--
			continue
		case pageContinues:
			// The target hash runs past the page boundary (collision bits
			// say the run continues on the next page).
			if p+1 >= g.entityPages() {
				return kv.Entity{}, now, false
			}
			p++
			continue
		default:
			return kv.Entity{}, now, false
		}
	}
}

// candidatePage returns the last page whose first-entity hash prefix is
// ≤ h16, or -1. A hand-rolled binary search: this runs on every GET that
// reaches a group, so the sort.Search closure overhead is worth shaving.
func candidatePage(prefixes []uint16, h16 uint16) int {
	lo, hi := 0, len(prefixes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if prefixes[mid] > h16 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

type pageSearchStatus int

const (
	pageMiss pageSearchStatus = iota
	pageHit
	pageBefore
	pageContinues
)

// Collision bits stored in each page's aux field (paper Fig. 7): bit 0 set
// when the last hash run continues onto the next page, bit 1 set when the
// first hash run continues from the previous page.
const (
	auxContinuesNext = 1 << 0
	auxContinuesPrev = 1 << 1
)

// searchPageByHash binary-searches one page's hash-sorted entities. Probes
// decode only the record's hash (PageReader.EntityHash); the full entity is
// decoded just for hash matches, whose keys must be compared.
func searchPageByHash(pr kv.PageReader, key []byte, hash uint32) (kv.Entity, pageSearchStatus) {
	n := pr.Count()
	if n == 0 {
		return kv.Entity{}, pageMiss
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		h, err := pr.EntityHash(mid)
		if err != nil {
			panic(err)
		}
		if h >= hash {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == n {
		// All hashes below target; the hash-prefix pick was right, so the
		// key is simply absent (its hash would sort into this page's tail).
		return kv.Entity{}, pageMiss
	}
	h, err := pr.EntityHash(lo)
	if err != nil {
		panic(err)
	}
	if h != hash {
		if lo == 0 {
			// Target hash sorts before every entity here: could live on the
			// previous page when prefixes tie.
			return kv.Entity{}, pageBefore
		}
		return kv.Entity{}, pageMiss
	}
	for i := lo; i < n; i++ {
		if i > lo {
			h, err := pr.EntityHash(i)
			if err != nil {
				panic(err)
			}
			if h != hash {
				return kv.Entity{}, pageMiss
			}
		}
		e, err := pr.Entity(i)
		if err != nil {
			panic(err)
		}
		if kv.Compare(e.Key, key) == 0 {
			return e, pageHit
		}
	}
	// The colliding run reaches the end of the page; consult the collision
	// bits to decide whether it spills onto the next page.
	if pr.Aux()&auxContinuesNext != 0 {
		return kv.Entity{}, pageContinues
	}
	return kv.Entity{}, pageMiss
}

// lookupEntity finds the newest on-flash entity for key without charging any
// simulated time (statistics bookkeeping only).
func (d *Device) lookupEntity(key []byte) (kv.Entity, *group, bool) {
	hash := xxhash.Sum32(key)
	for _, lv := range d.levels {
		g := lv.findGroup(key)
		if g == nil {
			continue
		}
		if g.hashes != nil && !g.hashContains(hash) {
			continue
		}
		if ent, ok := d.searchGroupFree(g, key, hash); ok {
			if ent.InLog && d.vlog.isLost(ent.LogPtr) {
				continue
			}
			if ent.Tombstone {
				return kv.Entity{}, nil, false
			}
			return ent, g, true
		}
	}
	return kv.Entity{}, nil, false
}

// searchGroupFree is searchGroup without timing charges.
func (d *Device) searchGroupFree(g *group, key []byte, hash uint32) (kv.Entity, bool) {
	h16 := xxhash.Prefix16(hash)
	p := candidatePage(g.firstHash16, h16)
	for p >= 0 && p < g.entityPages() {
		pr := kv.OpenPage(d.Arr.PageData(g.entityPPA(p)))
		ent, stat := searchPageByHash(pr, key, hash)
		switch stat {
		case pageHit:
			return ent, true
		case pageBefore:
			if p == 0 || g.firstHash16[p] != h16 {
				return kv.Entity{}, false
			}
			p--
		case pageContinues:
			p++
		default:
			return kv.Entity{}, false
		}
	}
	return kv.Entity{}, false
}

// Metadata implements device.KVSSD: level lists and hash lists, all
// DRAM-resident by construction (Table 1, Fig. 11a).
func (d *Device) Metadata() []device.MetaStructure {
	var levelList, hashLists int64
	for _, lv := range d.levels {
		for _, g := range lv.groups {
			levelList += g.entryBytes()
			if g.hashes != nil {
				hashLists += int64(4 * len(g.hashes))
			}
		}
	}
	return []device.MetaStructure{
		{Name: "level lists", Bytes: levelList, InDRAM: true},
		{Name: "hash lists", Bytes: hashLists, InDRAM: true},
	}
}

// groupStream returns (creating on demand) the run allocator for one
// level's groups; level 0 is the GC relocation stream.
func (d *Device) groupStream(level int) *ftl.RunStream {
	s, ok := d.groupStreams[level]
	if !ok {
		s = ftl.NewRunStream(d.Pool, ftl.RegionData)
		d.groupStreams[level] = s
	}
	return s
}
