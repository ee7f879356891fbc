// Package cache implements a host-side DRAM read cache in front of a
// simulated KV-SSD, after Flashield's admission discipline (Eisenman et al.,
// NSDI'19; PAPERS.md): every object is served from DRAM first, and only
// objects that prove themselves — enough accesses while resident in the
// ghost filter — are admitted, so one-hit wonders never displace the working
// set. Here DRAM is the host's, flash is the device's, and "admission"
// gates entry into the byte-budgeted LRU.
//
// The cache wraps device.KVSSD transparently: hits complete in hitLatency of
// host time with no device call, misses pay the device's virtual-time cost.
// Writes are write-through: the device write is the acknowledgement and a
// resident copy is refreshed, so the cache never holds state the device
// lacks and a power cycle loses nothing but warm entries.
package cache

import (
	"container/list"

	"anykey/internal/device"
	"anykey/internal/kv"
	"anykey/internal/sim"
)

// Config parameterises the cache.
type Config struct {
	// CapacityBytes is the DRAM budget for cached keys and values.
	CapacityBytes int64

	// AdmitAfter is the number of accesses (within ghost-filter memory) an
	// uncached key must accumulate before a miss admits it. 0 defaults to 2:
	// the first access registers, the second admits — Flashield's "shown
	// reuse" bar. 1 admits every miss (classic look-aside cache).
	AdmitAfter int
}

const (
	// hitLatency is the host-time cost of a DRAM hit (kernel/interconnect,
	// not media).
	hitLatency = 2 * sim.Microsecond

	// ghostSlots sizes the ghost filter (access counts for keys not in the
	// cache).
	ghostSlots = 1 << 15
)

func (c *Config) defaults() {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 64 << 20
	}
	if c.AdmitAfter == 0 {
		c.AdmitAfter = 2
	}
}

// Stats counts the cache's traffic.
type Stats struct {
	Hits     int64 // Gets served from DRAM
	Misses   int64 // Gets forwarded to the device
	Admitted int64 // entries that earned residence
	Evicted  int64 // entries displaced by the byte budget
	Bytes    int64 // current resident bytes
	Entries  int64 // current resident entries
}

// Add merges another snapshot into this one (cluster rollups).
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	s.Bytes += o.Bytes
	s.Entries += o.Entries
	return s
}

type entry struct {
	key   string
	value []byte
	elem  *list.Element
}

// Cache wraps an inner KVSSD with the admission-controlled DRAM tier. Like
// the devices it wraps, it is single-goroutine virtual-time.
type Cache struct {
	inner device.KVSSD
	cfg   Config

	entries map[string]*entry
	lru     *list.List // front = most recent; values are *entry
	bytes   int64

	// ghost is a direct-mapped table of access counts for keys seen but not
	// resident, indexed by key hash. Collisions merge counts — a small
	// admission error, exactly as a real sketch filter trades.
	ghost []uint8

	st Stats
}

// Wrap builds a cache in front of inner.
func Wrap(inner device.KVSSD, cfg Config) *Cache {
	cfg.defaults()
	return &Cache{
		inner:   inner,
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
		ghost:   make([]uint8, ghostSlots),
	}
}

var _ device.KVSSD = (*Cache)(nil)

// Inner returns the wrapped device (for harness access to arrays, tracers
// and power cycling — the cache itself has no durable state).
func (c *Cache) Inner() device.KVSSD { return c.inner }

// CacheStats returns a snapshot of the cache's counters.
func (c *Cache) CacheStats() Stats {
	st := c.st
	st.Bytes = c.bytes
	st.Entries = int64(c.lru.Len())
	return st
}

// fnv1a matches the ghost filter's only need: a cheap, allocation-free
// spread of key bytes over the slot space.
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (c *Cache) ghostSlot(key []byte) *uint8 {
	return &c.ghost[fnv1a(key)%uint64(len(c.ghost))]
}

func entryBytes(e *entry) int64 { return int64(len(e.key) + len(e.value) + 64) }

// touch moves e to the LRU front.
func (c *Cache) touch(e *entry) { c.lru.MoveToFront(e.elem) }

// insert installs a key-value pair as resident, evicting to budget.
func (c *Cache) insert(key, value []byte) {
	e := &entry{key: string(key), value: value}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	c.bytes += entryBytes(e)
	c.evictToBudget()
}

// evictToBudget displaces LRU-tail entries until the budget holds. Every
// entry matches the device, so eviction costs no device traffic.
func (c *Cache) evictToBudget() {
	for c.bytes > c.cfg.CapacityBytes && c.lru.Len() > 1 {
		c.remove(c.lru.Back().Value.(*entry))
		c.st.Evicted++
	}
}

func (c *Cache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= entryBytes(e)
}

// Put implements device.KVSSD. The device write is the acknowledgement; a
// resident copy is refreshed, but a write alone does not earn admission.
// Like the devices, the cache copies the caller's buffers — harness drivers
// reuse them across requests.
func (c *Cache) Put(at sim.Time, key, value []byte) (sim.Time, error) {
	done, err := c.inner.Put(at, key, value)
	if err != nil {
		return done, err
	}
	if e, ok := c.entries[string(key)]; ok {
		c.bytes += int64(len(value) - len(e.value))
		e.value = append([]byte(nil), value...)
		c.touch(e)
		c.evictToBudget()
	}
	return done, nil
}

// Delete implements device.KVSSD.
func (c *Cache) Delete(at sim.Time, key []byte) (sim.Time, error) {
	done, err := c.inner.Delete(at, key)
	if err != nil {
		return done, err
	}
	if e, ok := c.entries[string(key)]; ok {
		c.remove(e)
	}
	return done, nil
}

// Get implements device.KVSSD. Hits are served from DRAM in hitLatency with
// no device call and no allocation; misses pay the device read and may admit
// the value under the Flashield bar.
func (c *Cache) Get(at sim.Time, key []byte) ([]byte, sim.Time, error) {
	if e, ok := c.entries[string(key)]; ok {
		c.st.Hits++
		c.touch(e)
		return e.value, at.Add(hitLatency), nil
	}
	c.st.Misses++
	v, done, err := c.inner.Get(at, key)
	if err != nil {
		return v, done, err
	}
	slot := c.ghostSlot(key)
	if *slot < 0xFF {
		*slot++
	}
	if int(*slot) >= c.cfg.AdmitAfter {
		*slot = 0
		c.st.Admitted++
		c.insert(key, v)
	}
	return v, done, nil
}

// Scan implements device.KVSSD. Range queries bypass the cache.
func (c *Cache) Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error) {
	return c.inner.Scan(at, start, n)
}

// Sync implements device.KVSSD. The cache holds nothing the device lacks.
func (c *Cache) Sync(at sim.Time) (sim.Time, error) { return c.inner.Sync(at) }

// Stats implements device.KVSSD, passing the device's statistics through.
func (c *Cache) Stats() *device.Stats { return c.inner.Stats() }

// Metadata implements device.KVSSD: the device's structures plus the cache's
// own DRAM tier (host DRAM, reported in-DRAM).
func (c *Cache) Metadata() []device.MetaStructure {
	ms := c.inner.Metadata()
	return append(ms, device.MetaStructure{Name: "host-cache", Bytes: c.bytes, InDRAM: true})
}
