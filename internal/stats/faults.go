package stats

// FaultCounters tallies injected NAND faults by flash-op cause. The arrays
// are indexed by nand.Cause (User, Flush, Compaction, GC, Meta, Log); they
// are sized generously so this package needs no nand dependency.
//
// For a fixed fault-plan seed and workload the counters are bit-for-bit
// reproducible across runs — the determinism tests compare them directly.
type FaultCounters struct {
	// ReadErrors counts transient read-error events; ReadRetries the extra
	// cell reads charged recovering from them (MaxReadRetries per event).
	ReadErrors  [8]int64
	ReadRetries [8]int64

	// ProgramFails and EraseFails count operations that failed permanently,
	// each retiring its block as grown-bad.
	ProgramFails [8]int64
	EraseFails   [8]int64

	// PowerCuts counts power-cut events fired (0 or 1: a plan's cut is
	// one-shot so recovery traffic cannot re-trigger it).
	PowerCuts int64
}

// Total returns the total number of fault events injected.
func (c FaultCounters) Total() int64 {
	t := c.PowerCuts
	for i := range c.ReadErrors {
		t += c.ReadErrors[i] + c.ProgramFails[i] + c.EraseFails[i]
	}
	return t
}

// Sub returns c - o, counter-wise (for per-phase deltas).
func (c FaultCounters) Sub(o FaultCounters) FaultCounters {
	var d FaultCounters
	for i := range c.ReadErrors {
		d.ReadErrors[i] = c.ReadErrors[i] - o.ReadErrors[i]
		d.ReadRetries[i] = c.ReadRetries[i] - o.ReadRetries[i]
		d.ProgramFails[i] = c.ProgramFails[i] - o.ProgramFails[i]
		d.EraseFails[i] = c.EraseFails[i] - o.EraseFails[i]
	}
	d.PowerCuts = c.PowerCuts - o.PowerCuts
	return d
}

// RecoveryInfo describes what the most recent Reopen had to rebuild or
// repair. A factory-fresh device reports the zero value.
type RecoveryInfo struct {
	// Recovered is true when the device was mounted via Reopen rather than
	// formatted fresh.
	Recovered bool

	// WearReset is true when Reopen discarded the per-block erase counters
	// (they live in controller DRAM, not flash, so every power cycle zeroes
	// them). GC victim scoring restarts from uniform wear afterwards.
	WearReset bool

	// TornPagesSkipped counts pages that failed their CRC at the *end* of a
	// block's written run — the signature of a program torn by a power cut —
	// and were discarded during recovery.
	TornPagesSkipped int64

	// LostLogValues counts value-log pointers whose fragment chain could not
	// be resolved after the crash (the value was acknowledged but never made
	// durable). The affected keys revert to their last durable version.
	LostLogValues int64

	// StaleEpochsDiscarded counts level rebuild epochs that were found
	// incomplete (torn multi-group writes) or superseded by a newer adjacent
	// epoch, and therefore ignored.
	StaleEpochsDiscarded int64

	// JournalEntriesReplayed counts the write-buffer entries restored from
	// journal pages written after the last completed buffer flush: writes a
	// Sync had made durable without flushing them into the tree.
	JournalEntriesReplayed int64

	// StaleJournalPagesDiscarded counts journal pages found on flash that a
	// completed buffer flush had already retired (their block simply had not
	// been erased yet) and that recovery therefore must not replay.
	StaleJournalPagesDiscarded int64
}
