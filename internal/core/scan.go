package core

import (
	"sort"

	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Scan implements device.KVSSD: a range query returning up to n pairs with
// key ≥ start (§4.4 "Range Query"). Each group's first pages hold a
// key-sorted {page, record} location table, so results come out in key
// order without any on-the-fly sort; and because a group stores a run of
// *consecutive* keys in a handful of neighbouring pages, long scans touch
// far fewer flash pages than PinK's scattered data segments (Fig. 18). Every
// flash page is read at most once per scan.
//
// The k-way merge below looks like pink's but is deliberately not shared
// with it: these cursors thread one clock through every step (now = t),
// PinK's iterators join theirs with sim.Max.
func (d *Device) Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error) {
	if n <= 0 {
		return nil, at, nil
	}
	now := d.Admit(at, trace.CauseHostRead)

	// Scan-global single-read guarantee, on a reusable device-owned set.
	if d.scanPages == nil {
		d.scanPages = make(map[nand.PPA]bool)
	}
	pagesRead := d.scanPages
	clear(pagesRead)

	iters := make([]*scanCursor, 0, len(d.levels)+1)
	iters = append(iters, newMemCursor(d.MT, start))
	for _, lv := range d.levels {
		c := &scanCursor{d: d, lv: lv, pagesRead: pagesRead}
		now = c.seek(now, start)
		iters = append(iters, c)
	}

	out := d.ScanResult(n)
	for len(out) < n {
		best := -1
		var bestKey []byte
		for i, it := range iters {
			if !it.valid() {
				continue
			}
			k, t := it.key(now)
			now = t
			if best < 0 || kv.Compare(k, bestKey) < 0 {
				best = i
				bestKey = k
			}
		}
		if best < 0 {
			break
		}
		winKey := bestKey
		ent, t2 := iters[best].entity(now)
		now = t2
		if ent.InLog && d.vlog.isLost(ent.LogPtr) {
			// The newest version's log value died in a power cut: step only
			// this cursor so an older, durable version of the key (a deeper
			// level still on flash) wins the next round instead.
			iters[best].next()
			continue
		}
		// Advance every cursor sitting on this key.
		for _, it := range iters {
			for it.valid() {
				k, t := it.key(now)
				now = t
				if kv.Compare(k, winKey) != 0 {
					break
				}
				it.next()
			}
		}
		if ent.Tombstone {
			continue
		}
		var value []byte
		if ent.InLog {
			v, t, charged := d.vlog.read(now, ent.LogPtr, nand.CauseUser)
			if charged {
				now = t
			}
			value = v
		} else {
			value = ent.Value
		}
		out = append(out, kv.Pair{Key: winKey, Value: value})
	}
	return out, now, nil
}

// scanCursor iterates one source (memtable or one level) in key order.
type scanCursor struct {
	// memtable source: a lazy skiplist iterator — the device is
	// single-threaded and a scan never mutates the memtable, so no
	// snapshot copy is needed.
	memIt memtable.Iter

	// level source
	d         *Device
	lv        *level
	gi        int                          // current group index
	ki        int                          // key index within group (location-table order)
	table     []struct{ Page, Rec uint16 } // reused across group crossings
	loaded    bool                         // table holds gi's location table
	pagesRead map[nand.PPA]bool

	// cur caches the decoded entity at (gi, ki): the merge loop asks for
	// the cursor's key several times per emitted pair, and re-reads are
	// free anyway (pagesRead dedups the flash charge), so the cache only
	// skips redundant record decodes — timing is unchanged.
	cur   kv.Entity
	curOK bool
}

func newMemCursor(mt *memtable.Table, start []byte) *scanCursor {
	return &scanCursor{memIt: mt.IterFrom(start)}
}

// seek positions the cursor at the first key ≥ start.
func (c *scanCursor) seek(at sim.Time, start []byte) sim.Time {
	now := at
	c.gi = sort.Search(len(c.lv.groups), func(i int) bool {
		return kv.Compare(c.lv.groups[i].smallest, start) > 0
	})
	if c.gi > 0 {
		c.gi--
	}
	for c.gi < len(c.lv.groups) {
		now = c.loadGroup(now)
		g := c.lv.groups[c.gi]
		// Binary search the location table by key.
		lo, hi := 0, g.count
		for lo < hi {
			mid := (lo + hi) / 2
			e, t := c.entityAt(now, mid)
			now = t
			if kv.Compare(e.Key, start) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < g.count {
			c.ki = lo
			c.curOK = false
			return now
		}
		c.gi++ // every key in this group is below start
	}
	return now
}

// loadGroup reads the current group's location-table pages.
func (c *scanCursor) loadGroup(at sim.Time) sim.Time {
	g := c.lv.groups[c.gi]
	now := at
	imgs := make([][]byte, g.tablePages)
	for p := 0; p < g.tablePages; p++ {
		ppa := g.firstPPA + nand.PPA(p)
		now = c.read(now, ppa)
		imgs[p] = c.d.Arr.PageData(ppa)
	}
	c.table = readLocationTableInto(c.table[:0], imgs, g.count)
	c.loaded = true
	c.ki = 0
	c.curOK = false
	return now
}

// read charges a flash read once per page per scan.
func (c *scanCursor) read(at sim.Time, ppa nand.PPA) sim.Time {
	if c.pagesRead[ppa] {
		return at
	}
	c.pagesRead[ppa] = true
	return c.d.Arr.Read(at, ppa, nand.CauseUser)
}

// entityAt fetches the group's i-th entity in key order, lazily loading the
// group's location table after a group crossing.
func (c *scanCursor) entityAt(at sim.Time, i int) (kv.Entity, sim.Time) {
	if !c.loaded {
		at = c.loadGroup(at)
	}
	g := c.lv.groups[c.gi]
	loc := c.table[i]
	ppa := g.entityPPA(int(loc.Page))
	now := c.read(at, ppa)
	pr := kv.OpenPage(c.d.Arr.PageData(ppa))
	e, err := pr.Entity(int(loc.Rec))
	if err != nil {
		panic(err)
	}
	return e, now
}

func (c *scanCursor) valid() bool {
	if c.d == nil {
		return c.memIt.Valid()
	}
	return c.gi < len(c.lv.groups)
}

func (c *scanCursor) key(at sim.Time) ([]byte, sim.Time) {
	if c.d == nil {
		return c.memIt.Entry().Key, at
	}
	e, t := c.current(at)
	return e.Key, t
}

// current returns the cached entity at the cursor position, decoding once
// per position.
func (c *scanCursor) current(at sim.Time) (*kv.Entity, sim.Time) {
	if !c.curOK {
		e, t := c.entityAt(at, c.ki)
		c.cur, at = e, t
		c.curOK = true
	}
	return &c.cur, at
}

// entity returns the full entity at the cursor (memtable entries are
// converted to the entity shape).
func (c *scanCursor) entity(at sim.Time) (kv.Entity, sim.Time) {
	if c.d == nil {
		m := c.memIt.Entry()
		return kv.Entity{Key: m.Key, Value: m.Value, Tombstone: m.Tombstone}, at
	}
	e, t := c.current(at)
	return *e, t
}

func (c *scanCursor) next() {
	if c.d == nil {
		c.memIt.Next()
		return
	}
	c.curOK = false
	c.ki++
	if c.ki >= len(c.table) {
		c.gi++
		c.loaded = false // next group's table loads lazily on first access
		c.ki = 0
	}
}
