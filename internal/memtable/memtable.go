// Package memtable implements the device-internal DRAM write buffer (the
// LSM-tree's L0): a skiplist ordered by key holding the most recent version
// of each buffered pair. Both KV-SSD designs buffer incoming writes here and
// flush the whole table into L1 when it reaches its size threshold
// (paper §4.2 "Write").
package memtable

import (
	"math/rand"

	"anykey/internal/kv"
)

const maxHeight = 12

// Entry is one buffered write: the newest version of a key, or a tombstone.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// Bytes returns the DRAM footprint charged for the entry.
func (e *Entry) Bytes() int64 { return int64(len(e.Key) + len(e.Value)) }

type node struct {
	entry  Entry
	prefix uint64 // keyPrefix(entry.Key), cached for cheap skiplist compares
	next   [maxHeight]*node

	// unsynced chains the nodes written since the last MarkSynced (see
	// Table.Unsynced); nextUnsynced is meaningful only while unsynced is set.
	unsynced     bool
	nextUnsynced *node
}

// keyPrefix packs a key's first 8 bytes big-endian, zero-padded. For two
// keys, prefix inequality implies the same ordering as kv.Compare: the
// prefixes are the zero-extended first 8 bytes, and zero-padding can only
// make a shorter key compare equal-so-far — never larger — exactly like the
// length rule of lexicographic comparison. Equal prefixes decide nothing and
// fall back to the full compare.
func keyPrefix(key []byte) uint64 {
	var p uint64
	n := len(key)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// Table is the skiplist write buffer. Not safe for concurrent use (the
// simulation is single-goroutine).
type Table struct {
	head   node
	height int
	rng    *rand.Rand
	count  int
	bytes  int64

	allBuf []Entry // reusable All() snapshot storage

	// The unsynced list: every node written since the last MarkSynced, each
	// once, in first-write order. It threads through the nodes themselves,
	// so tracking what a durable sync still owes costs a write no
	// allocation and the sync a walk over exactly those nodes.
	unsyncedHead, unsyncedTail *node

	// Node arena: all nodes die together at Reset, so they come from
	// fixed-size chunks whose storage survives resets. Chunks never move
	// (each is its own allocation), keeping node pointers stable.
	chunks   [][]node
	nextNode int
}

// arenaChunk is the node count per arena chunk.
const arenaChunk = 256

func (t *Table) newNode() *node {
	ci, off := t.nextNode/arenaChunk, t.nextNode%arenaChunk
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, make([]node, arenaChunk))
	}
	t.nextNode++
	return &t.chunks[ci][off]
}

// New returns an empty table. The seed makes tower heights — and therefore
// iteration performance — deterministic across runs.
func New(seed int64) *Table {
	return &Table{height: 1, rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of distinct buffered keys.
func (t *Table) Len() int { return t.count }

// Bytes returns the total key+value bytes buffered, the size compared
// against the flush threshold.
func (t *Table) Bytes() int64 { return t.bytes }

// findPath fills prev with the rightmost node at each level whose key is
// strictly less than key, and returns the candidate node (≥ key) at level 0.
// Each step compares cached 8-byte prefixes first; the full key compare runs
// only on prefix ties.
func (t *Table) findPath(key []byte, prev *[maxHeight]*node) *node {
	p := keyPrefix(key)
	x := &t.head
	for lvl := t.height - 1; lvl >= 0; lvl-- {
		for nx := x.next[lvl]; nx != nil; nx = x.next[lvl] {
			if nx.prefix >= p && (nx.prefix > p || kv.Compare(nx.entry.Key, key) >= 0) {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return x.next[0]
}

// Put buffers a write, replacing any previous version of the key. It
// returns the replaced entry, if one existed — callers that account live
// bytes use it to avoid a second skiplist search.
func (t *Table) Put(key, value []byte) (Entry, bool) { return t.insert(key, value, false) }

// Delete buffers a tombstone for the key, returning the replaced entry.
func (t *Table) Delete(key []byte) (Entry, bool) { return t.insert(key, nil, true) }

func (t *Table) insert(key, value []byte, tomb bool) (Entry, bool) {
	var prev [maxHeight]*node
	if n := t.findPath(key, &prev); n != nil && kv.Compare(n.entry.Key, key) == 0 {
		old := n.entry
		t.bytes += int64(len(value)) - int64(len(old.Value))
		n.entry.Value = value
		n.entry.Tombstone = tomb
		t.markUnsynced(n)
		return old, true
	}
	h := 1
	for h < maxHeight && t.rng.Intn(4) == 0 {
		h++
	}
	for lvl := t.height; lvl < h; lvl++ {
		prev[lvl] = &t.head
	}
	if h > t.height {
		t.height = h
	}
	n := t.newNode()
	*n = node{entry: Entry{Key: key, Value: value, Tombstone: tomb}, prefix: keyPrefix(key)}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	t.count++
	t.bytes += n.entry.Bytes()
	t.markUnsynced(n)
	return Entry{}, false
}

func (t *Table) markUnsynced(n *node) {
	if n.unsynced {
		return
	}
	n.unsynced = true
	n.nextUnsynced = nil
	if t.unsyncedTail == nil {
		t.unsyncedHead = n
	} else {
		t.unsyncedTail.nextUnsynced = n
	}
	t.unsyncedTail = n
}

// AnyUnsynced reports whether any entry was written since the last
// MarkSynced.
func (t *Table) AnyUnsynced() bool { return t.unsyncedHead != nil }

// Unsynced calls fn with the current version of every entry written since
// the last MarkSynced, in first-write order. A key overwritten several times
// appears once. fn must not mutate the table.
func (t *Table) Unsynced(fn func(*Entry)) {
	for n := t.unsyncedHead; n != nil; n = n.nextUnsynced {
		fn(&n.entry)
	}
}

// MarkSynced empties the unsynced list: the caller has made every entry on
// it durable some other way (or, after a recovery replay, they arrived
// durable).
func (t *Table) MarkSynced() {
	for n := t.unsyncedHead; n != nil; n = n.nextUnsynced {
		n.unsynced = false
	}
	t.unsyncedHead, t.unsyncedTail = nil, nil
}

// Get returns the buffered entry for key. The second result reports whether
// the key is present (a tombstone is present with Tombstone set).
func (t *Table) Get(key []byte) (Entry, bool) {
	n := t.findPath(key, nil)
	if n != nil && kv.Compare(n.entry.Key, key) == 0 {
		return n.entry, true
	}
	return Entry{}, false
}

// All returns every buffered entry in ascending key order. The slice is
// valid until the next All call: it reuses one table-owned buffer, sized for
// the drain-into-flush pattern where each snapshot is consumed before the
// table refills. (Entry Key/Value slices stay valid independently.)
func (t *Table) All() []Entry {
	out := t.allBuf[:0]
	if cap(out) < t.count {
		out = make([]Entry, 0, t.count)
	}
	for n := t.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.entry)
	}
	t.allBuf = out
	return out
}

// AscendFrom calls fn for each entry with key ≥ start, in order, until fn
// returns false.
func (t *Table) AscendFrom(start []byte, fn func(Entry) bool) {
	n := t.findPath(start, nil)
	for ; n != nil; n = n.next[0] {
		if !fn(n.entry) {
			return
		}
	}
}

// Iter is a pull-based iterator over entries in ascending key order. It
// walks the skiplist lazily — no snapshot copy — so it is only valid while
// the table is not mutated or Reset.
type Iter struct {
	n *node
}

// IterFrom returns an iterator positioned at the first entry with key ≥
// start.
func (t *Table) IterFrom(start []byte) Iter { return Iter{n: t.findPath(start, nil)} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.n != nil }

// Entry returns the current entry. The pointer is into the table; callers
// must not mutate it and must not retain it across table mutation.
func (it *Iter) Entry() *Entry { return &it.n.entry }

// Next advances to the next entry in key order.
func (it *Iter) Next() { it.n = it.n.next[0] }

// Reset empties the table, retaining its RNG state and node arena.
func (t *Table) Reset() {
	t.head = node{}
	t.height = 1
	t.count = 0
	t.bytes = 0
	t.nextNode = 0
	t.unsyncedHead, t.unsyncedTail = nil, nil
}
