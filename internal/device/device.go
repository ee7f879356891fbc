// Package device defines the interface every simulated KV-SSD design
// implements (PinK, AnyKey, AnyKey+, AnyKey−) together with the common
// statistics the benchmark harness collects from them. All operations are
// expressed in virtual time: a request enters the device at an instant and
// the device returns the instant it completes, having occupied the simulated
// flash chips, channels and controller CPU in between.
package device

import (
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/stats"
)

// KVSSD is the key-value interface the host drives (the KV counterpart of
// an NVMe command set). Implementations are single-goroutine virtual-time
// simulations: calls must be issued with non-decreasing `at`. Drivers
// should not uphold that contract by hand — the host submission engine
// (internal/host) owns the slot clocks and enforces it in one place, at
// any queue depth.
type KVSSD interface {
	// Put stores or overwrites a key-value pair. It returns kv.ErrDeviceFull
	// when flash is exhausted even after garbage collection.
	Put(at sim.Time, key, value []byte) (sim.Time, error)

	// Delete removes the key by writing a tombstone. Deleting an absent key
	// succeeds (the tombstone is simply dropped during compaction).
	Delete(at sim.Time, key []byte) (sim.Time, error)

	// Get returns the newest value of key, or kv.ErrNotFound. The returned
	// slice must not be modified by the caller.
	Get(at sim.Time, key []byte) ([]byte, sim.Time, error)

	// Scan returns up to n pairs with key ≥ start in ascending key order
	// (a range query in the paper's terms).
	Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error)

	// Sync makes every acknowledged write durable (the FLUSH command): the
	// pairs buffered since the last sync are programmed into the write-buffer
	// journal, along with any partially filled write buffers. The pairs stay
	// buffered; they reach the LSM tree when the buffer next fills.
	Sync(at sim.Time) (sim.Time, error)

	// Stats returns the device's live statistics. The pointer stays valid
	// and updates as the simulation advances.
	Stats() *Stats

	// Metadata reports the current size and placement of every metadata
	// structure, for Table 1 and Fig. 11a.
	Metadata() []MetaStructure
}

// Counters is the firmware's activity tally: every number a device keeps by
// counting as it runs. It is the one declaration of each counter; the
// facade's snapshot, the cluster rollups and the harness results embed it,
// so a counter added here reaches all of them and Add sums it.
type Counters struct {
	// TreeCompactions and LogCompactions count compaction invocations;
	// ChainedCompactions counts tree compactions triggered directly by a
	// log-triggered compaction overflowing its destination level — the
	// "compaction chains" AnyKey+ eliminates (§4.6).
	TreeCompactions    int64
	LogCompactions     int64
	ChainedCompactions int64

	// Syncs counts FLUSH commands received, including those that found
	// nothing unsynced; JournalPages the write-buffer journal pages they
	// programmed (checkpoints included). A sync that finds the journal at its
	// bound either rewrites it from the buffer (JournalCheckpoints) or, when
	// the buffer is too large for that, flushes the buffer into the tree
	// instead (SyncFlushes).
	Syncs              int64
	JournalPages       int64
	JournalCheckpoints int64
	SyncFlushes        int64

	// GCRuns counts garbage-collection victim selections; GCRelocations the
	// pages relocated by them (AnyKey's design goal is ≈0, §4.4).
	GCRuns        int64
	GCRelocations int64

	// LiveKeys and LiveBytes track the unique pairs resident (Fig. 14).
	LiveKeys  int64
	LiveBytes int64
}

// Add returns the field-wise sum of c and o (cluster rollups).
func (c Counters) Add(o Counters) Counters {
	c.TreeCompactions += o.TreeCompactions
	c.LogCompactions += o.LogCompactions
	c.ChainedCompactions += o.ChainedCompactions
	c.Syncs += o.Syncs
	c.JournalPages += o.JournalPages
	c.JournalCheckpoints += o.JournalCheckpoints
	c.SyncFlushes += o.SyncFlushes
	c.GCRuns += o.GCRuns
	c.GCRelocations += o.GCRelocations
	c.LiveKeys += o.LiveKeys
	c.LiveBytes += o.LiveBytes
	return c
}

// Stats aggregates the observable behaviour the evaluation section reports.
type Stats struct {
	// Flash counts page reads/writes by cause and erases (Table 3, Fig. 13).
	Flash func() nand.Counters

	// ReadAccesses histograms flash accesses per Get (Fig. 11b).
	ReadAccesses *stats.IntHist

	Counters

	// DRAMCapacity and DRAMUsed snapshot the metadata budget.
	DRAMCapacity func() int64
	DRAMUsed     func() int64

	// Faults counts injected NAND faults by cause (nil when the device runs
	// without a fault plan).
	Faults func() stats.FaultCounters

	// Wear snapshots the flash pool's per-block erase-count distribution;
	// every design has one (the shared front-end sets it).
	Wear func() ftl.WearStats

	// Recovery describes what the last Reopen found: whether it ran at all,
	// that wear counters were reset (the flash array is rebuilt from page
	// images, so erase history is not carried across a power cycle), and how
	// much damage the power cut left behind.
	Recovery stats.RecoveryInfo
}

// NewStats returns a Stats with its histograms allocated.
func NewStats() *Stats {
	return &Stats{ReadAccesses: stats.NewIntHist(8)}
}

// Snapshot is a point-in-time copy of Stats' numbers with every lazily
// computed view resolved.
type Snapshot struct {
	Counters
	Flash nand.Counters

	DRAMCapacity, DRAMUsed int64

	// Faults is zero when the device runs without a fault plan.
	Faults stats.FaultCounters

	Recovery stats.RecoveryInfo
}

// Snapshot resolves the views that are set and copies the rest.
func (s *Stats) Snapshot() Snapshot {
	out := Snapshot{Counters: s.Counters, Recovery: s.Recovery}
	if s.Flash != nil {
		out.Flash = s.Flash()
	}
	if s.DRAMCapacity != nil {
		out.DRAMCapacity = s.DRAMCapacity()
	}
	if s.DRAMUsed != nil {
		out.DRAMUsed = s.DRAMUsed()
	}
	if s.Faults != nil {
		out.Faults = s.Faults()
	}
	return out
}

// Unwrap peels host-side wrappers (the DRAM cache) off a device via their
// Inner method, returning the firmware that owns flash.
func Unwrap(d KVSSD) KVSSD {
	for {
		w, ok := d.(interface{ Inner() KVSSD })
		if !ok {
			return d
		}
		d = w.Inner()
	}
}

// ReleaseMemory eagerly frees a device's page-payload memory when the
// firmware beneath any wrappers supports it (device close, shard death).
// Safe on every KVSSD; devices without release support are untouched.
func ReleaseMemory(d KVSSD) {
	if r, ok := Unwrap(d).(interface{ ReleaseMemory() }); ok {
		r.ReleaseMemory()
	}
}

// FootprintOf reads the flash payload store's memory accounting beneath any
// wrappers; zero for devices without one.
func FootprintOf(d KVSSD) nand.StoreFootprint {
	if f, ok := Unwrap(d).(interface{ Footprint() nand.StoreFootprint }); ok {
		return f.Footprint()
	}
	return nand.StoreFootprint{}
}

// MetaStructure is one row of the metadata-size report: a named structure,
// its byte footprint, and whether it currently resides in DRAM or flash.
type MetaStructure struct {
	Name   string
	Bytes  int64
	InDRAM bool
}

// TotalDRAM sums the DRAM-resident structures of a metadata report.
func TotalDRAM(ms []MetaStructure) int64 {
	var t int64
	for _, m := range ms {
		if m.InDRAM {
			t += m.Bytes
		}
	}
	return t
}

// TotalFlash sums the flash-resident structures of a metadata report.
func TotalFlash(ms []MetaStructure) int64 {
	var t int64
	for _, m := range ms {
		if !m.InDRAM {
			t += m.Bytes
		}
	}
	return t
}
