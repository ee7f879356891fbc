package core

import (
	"fmt"
	"slices"

	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/trace"
)

// CorruptPageError reports a page that failed its integrity check in a
// position recovery cannot attribute to a power cut: it is not the last
// written page of its block, so in-order programming rules out a torn
// in-flight program. This is real corruption (or a software bug), not crash
// damage, and Reopen refuses to mount over it.
type CorruptPageError struct {
	PPA nand.PPA
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("core: recover: page %d fails its integrity check mid-block (not attributable to a power cut)", e.PPA)
}

// Reopen mounts an AnyKey device over an existing flash array — the
// power-cycle recovery path. Everything the design keeps in DRAM is
// *derived* state: level lists and per-page hash prefixes rebuild from the
// persistent group headers and pages, hash lists from the entities, the
// value log's fragment chains, remaps and liveness from the log pages'
// headers plus the recovered entities' pointers. Buffered (memtable) writes
// are volatile and lost unless Sync ran before the power cut; those a Sync
// covered come back from the write-buffer journal. Per-block wear counters
// are also reset (real devices persist them out of band) —
// Stats().Recovery.WearReset records that.
//
// Recovery tolerates a power cut at ANY flash-operation boundary, including
// mid-compaction and mid-flush:
//
//   - A torn page (the cut struck during its program) fails its integrity
//     check; in-order programming makes it the last written page of its
//     block, so recovery skips it as unwritten. Integrity failures anywhere
//     else return a *CorruptPageError.
//   - A level mounts only its newest COMPLETE rebuild epoch: groups carry
//     {epoch, index, last-flag} so a half-written rebuild is detected and the
//     previous epoch mounts instead (its pages are only invalidated after
//     the new epoch is durable — see compactInto).
//   - A level whose consumed input outlived a completed merge into the next
//     level (the cut struck between the merge's durability and the input's
//     release) is recognised by the adjacent-epoch rule and discarded.
//   - Value-log pointers whose pages never became durable are marked lost;
//     reads fall through to the key's older, durable version.
//   - Journal pages written since the last completed buffer flush replay, in
//     sequence order, into the write buffer; a batch the cut left short is
//     ignored whole. A journal page that flush retired but that is still on
//     flash is recognised by its stamp — it is older than the flush epoch
//     every later rebuild records — and is not replayed.
func Reopen(cfg Config, arr *nand.Array) (*Device, error) {
	cfg.Defaults()
	if arr.Geometry() != cfg.Geometry {
		return nil, fmt.Errorf("core: reopen geometry %+v does not match config %+v",
			arr.Geometry(), cfg.Geometry)
	}
	d, err := newDevice(cfg, arr)
	if err != nil {
		return nil, err
	}
	// The mount scan flows through the ordinary flash read path; the scope
	// relabels its events from "meta" to "recovery" for the trace consumers.
	d.Tr.EnterScope(trace.CauseRecovery)
	err = d.recover()
	d.Tr.ExitScope()
	if err != nil {
		return nil, err
	}
	d.Tr.Instant(trace.BGTrack(trace.CauseRecovery), trace.EvRecovery,
		trace.CauseRecovery, 0, int64(d.St.Recovery.TornPagesSkipped))
	return d, nil
}

// foundGroup is one group-header sighting from the recovery scan.
type foundGroup struct {
	hdr      groupHeader
	firstPPA nand.PPA
	intact   bool // all hdr.pages pages written and untorn
}

// recover scans the flash array and rebuilds the DRAM state.
func (d *Device) recover() error {
	geo := d.cfg.Geometry
	d.St.Recovery.Recovered = true
	d.St.Recovery.WearReset = true

	var groups []foundGroup
	var logPages []logPageRef
	var journal []lsm.JournalPage
	blockRegion := make([]ftl.Region, geo.Blocks())
	torn := make(map[nand.PPA]bool)

	// Pass 1: identify every written page by its persistent header. The
	// scan charges one read per written page at the mount instant (the
	// device is offline; only the counters matter).
	for b := 0; b < geo.Blocks(); b++ {
		for p := 0; p < geo.PagesPerBlock; p++ {
			ppa := d.Arr.PageOf(nand.BlockID(b), p)
			if !d.Arr.Written(ppa) {
				break // blocks program in order; the tail is unwritten
			}
			d.Arr.Read(0, ppa, nand.CauseMeta)
			if !kv.OpenPage(d.Arr.PageData(ppa)).Verify() {
				last := p == geo.PagesPerBlock-1 || !d.Arr.Written(ppa+1)
				if !last {
					return &CorruptPageError{PPA: ppa}
				}
				// Torn in-flight program: skip as if unwritten.
				torn[ppa] = true
				d.St.Recovery.TornPagesSkipped++
				if blockRegion[b] == ftl.RegionNone {
					blockRegion[b] = ftl.RegionData
				}
				continue
			}
			extra := kv.OpenPage(d.Arr.PageData(ppa)).Extra()
			if hdr, ok := readGroupHeader(extra); ok {
				groups = append(groups, foundGroup{hdr: hdr, firstPPA: ppa})
				blockRegion[b] = ftl.RegionData
			} else if seq, logical, ok := readLogPageHeader(extra); ok {
				logPages = append(logPages, logPageRef{seq: seq, logical: logical, phys: ppa})
				if blockRegion[b] == ftl.RegionNone {
					blockRegion[b] = ftl.RegionLog
				}
			} else if jp, ok := lsm.ReadJournalHeader(extra, ppa); ok {
				journal = append(journal, jp)
				if blockRegion[b] == ftl.RegionNone {
					blockRegion[b] = ftl.RegionJournal
				}
			} else if blockRegion[b] == ftl.RegionNone {
				// Entity or continuation page: data region.
				blockRegion[b] = ftl.RegionData
			}
		}
	}

	// A group is usable only when every one of its pages survives: a program
	// failure or a power cut leaves truncated copies behind (retries re-issue
	// the whole group elsewhere), and a torn tail page voids its run.
	for i := range groups {
		fg := &groups[i]
		fg.intact = true
		for p := 0; p < fg.hdr.pages; p++ {
			ppa := fg.firstPPA + nand.PPA(p)
			if int64(ppa) >= int64(geo.Pages()) || !d.Arr.Written(ppa) || torn[ppa] {
				fg.intact = false
				break
			}
		}
	}

	// Per level, mount only the newest COMPLETE epoch: all indices 0..n-1
	// present and intact, with the last-group flag on index n-1. GC may leave
	// duplicate intact copies of a group (relocation's source survives until
	// erase); the lowest PPA wins, deterministically.
	chosen, mounted, discarded := selectEpochs(groups)

	// The last buffer flush known to have completed: the newest one any
	// complete epoch records. A flush's own L1 epoch may be gone — consumed by
	// a cascade in the same unit and erased — but then the cascade's output
	// records it too. (All groups of an epoch carry the same value.)
	for _, fgs := range mounted {
		d.flushEpoch = max(d.flushEpoch, fgs[0].hdr.flushEpoch)
	}

	// Adjacent-epoch supersede: a merge of level L into L+1 consumes L's
	// groups, but a cut between the new L+1 epoch's durability and the
	// release of L's pages leaves both on flash. The consumed input is
	// recognisable by its epoch: every LIVE level is rebuilt after anything
	// beneath it that consumed it, so chosen[L] < chosen[L+1] can only mean
	// L's content already lives inside L+1's newer epoch. Only adjacent
	// levels compare — a deep log-triggered compaction legitimately leaves
	// shallower levels with older epochs.
	maxLevel := 0
	for l := range chosen {
		if l > maxLevel {
			maxLevel = l
		}
	}
	for l := 1; l < maxLevel; l++ {
		if _, ok := chosen[l]; !ok {
			continue
		}
		if next, ok := chosen[l+1]; ok && chosen[l] < next {
			delete(mounted, l)
			discarded++
		}
	}
	d.St.Recovery.StaleEpochsDiscarded += discarded

	// d.Epoch continues past everything ever written, discarded or not.
	for _, fg := range groups {
		if fg.hdr.epoch >= d.Epoch {
			d.Epoch = fg.hdr.epoch + 1
		}
	}

	// Adopt block ownership before marking pages valid. Grown-bad blocks
	// holding live pages are re-owned (Pool.Adopt accepts them); bad blocks
	// with nothing on them stay parked in RegionBad.
	for b, r := range blockRegion {
		if r != ftl.RegionNone {
			d.Pool.Adopt(nand.BlockID(b), r)
		}
	}

	// Rebuild the value-log stream state first (remaps, fragment chains),
	// so group adoption can account value liveness.
	if d.vlog != nil {
		d.recoverLog(logPages)
	}

	// Pass 2: reconstruct the chosen groups and install them into levels.
	for len(d.levels) < maxLevel {
		d.levels = append(d.levels, &level{})
	}
	for l, fgs := range mounted {
		lv := d.levels[l-1]
		for _, fg := range fgs {
			g, err := d.adoptGroup(fg.hdr, fg.firstPPA)
			if err != nil {
				return err
			}
			lv.groups = append(lv.groups, g)
			lv.bytes += g.physBytes
		}
	}
	for _, lv := range d.levels {
		slices.SortFunc(lv.groups, func(a, b *group) int {
			return kv.Compare(a.smallest, b.smallest)
		})
	}
	d.recLogPages = nil
	d.recountLive()

	// The tree is mounted and counted; the journal puts back, on top of it,
	// the buffered writes that were durable without being in it.
	replayed, stale, err := d.ReplayJournal(journal, d.flushEpoch,
		func(prev memtable.Entry, had bool, key, value []byte, tombstone bool) {
			if tombstone {
				d.accountDelete(prev, had, key)
			} else {
				d.accountPut(prev, had, key, value)
			}
		})
	d.St.Recovery.JournalEntriesReplayed = replayed
	d.St.Recovery.StaleJournalPagesDiscarded = stale
	return err
}

// recountLive re-derives LiveKeys/LiveBytes from the mounted tree. The write
// path maintains them incrementally, so recovery only has to establish the
// starting point. Shadowing matches the read path: the shallowest level's
// version of a key decides, except that a lost log value falls through to
// the next level, and a deciding tombstone means dead. Pages were all read
// during the recovery scan, so this pass decodes from the array image
// without charging further flash traffic.
func (d *Device) recountLive() {
	decided := make(map[string]bool)
	for _, lv := range d.levels {
		for _, g := range lv.groups {
			imgs := make([][]byte, g.numPages)
			for p := 0; p < g.numPages; p++ {
				imgs[p] = d.Arr.PageData(g.firstPPA + nand.PPA(p))
			}
			table := readLocationTable(imgs[:g.tablePages], g.count)
			for _, loc := range table {
				e, err := kv.OpenPage(imgs[g.tablePages+int(loc.Page)]).Entity(int(loc.Rec))
				if err != nil {
					panic(err)
				}
				if decided[string(e.Key)] {
					continue
				}
				if e.InLog && d.vlog.isLost(e.LogPtr) {
					continue // unreadable version: a deeper level decides
				}
				decided[string(e.Key)] = true
				if !e.Tombstone {
					d.St.LiveKeys++
					d.St.LiveBytes += int64(len(e.Key)) + int64(e.Len())
				}
			}
		}
	}
}

// selectEpochs picks, per level, the newest complete epoch's groups (one
// copy per index). It returns the chosen epoch per level, the groups to
// mount, and how many distinct (level, epoch) rebuilds were discarded as
// incomplete or superseded.
func selectEpochs(groups []foundGroup) (chosen map[int]uint32, mounted map[int][]foundGroup, discarded int64) {
	// level → epoch → index → best copy.
	byLevel := make(map[int]map[uint32]map[int]foundGroup)
	for _, fg := range groups {
		epochs := byLevel[fg.hdr.level]
		if epochs == nil {
			epochs = make(map[uint32]map[int]foundGroup)
			byLevel[fg.hdr.level] = epochs
		}
		byIdx := epochs[fg.hdr.epoch]
		if byIdx == nil {
			byIdx = make(map[int]foundGroup)
			epochs[fg.hdr.epoch] = byIdx
		}
		prev, ok := byIdx[fg.hdr.index]
		switch {
		case !ok:
			byIdx[fg.hdr.index] = fg
		case fg.intact && !prev.intact:
			byIdx[fg.hdr.index] = fg
		case fg.intact == prev.intact && fg.firstPPA < prev.firstPPA:
			byIdx[fg.hdr.index] = fg
		}
	}

	chosen = make(map[int]uint32)
	mounted = make(map[int][]foundGroup)
	for l, epochs := range byLevel {
		var order []uint32
		for e := range epochs {
			order = append(order, e)
		}
		slices.SortFunc(order, func(a, b uint32) int {
			switch {
			case a > b:
				return -1
			case a < b:
				return 1
			}
			return 0
		})
		for _, e := range order {
			if fgs, ok := completeEpoch(epochs[e]); ok {
				chosen[l] = e
				mounted[l] = fgs
				break
			}
		}
		discarded += int64(len(order))
		if _, ok := chosen[l]; ok {
			discarded--
		}
	}
	return chosen, mounted, discarded
}

// completeEpoch reports whether the epoch's intact copies form the full
// index sequence 0..n-1 ending in the last-group flag, returning them in
// index order.
func completeEpoch(byIdx map[int]foundGroup) ([]foundGroup, bool) {
	n := -1
	for idx, fg := range byIdx {
		if fg.intact && fg.hdr.last && idx+1 > n {
			n = idx + 1
		}
	}
	if n < 0 {
		return nil, false
	}
	out := make([]foundGroup, 0, n)
	for i := 0; i < n; i++ {
		fg, ok := byIdx[i]
		if !ok || !fg.intact {
			return nil, false
		}
		out = append(out, fg)
	}
	return out, true
}

// logPageRef locates one recovered log page: its position in the append
// stream, the logical (pointer-visible) address persisted in its header,
// and the physical page it was scanned from (different only when a program
// failure remapped the sealed image into a fresh block).
type logPageRef struct {
	seq           uint64
	logical, phys nand.PPA
}

// recoverLog replays the log pages in sequence order, rebuilding the
// logical→physical remap table and the fragment chains. Liveness starts at
// zero; adoptGroup adds back the bytes that surviving entities reference.
func (d *Device) recoverLog(pages []logPageRef) {
	d.recLogPages = make(map[nand.PPA]bool, len(pages))
	for _, lp := range pages {
		if lp.logical != lp.phys {
			d.vlog.remap[lp.logical] = lp.phys
		}
		d.recLogPages[lp.logical] = true
	}
	slices.SortFunc(pages, func(a, b logPageRef) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
	var pendingPtr uint64 // fragment awaiting its continuation
	var remaining uint64  // bytes still owed to the value being assembled
	for _, lp := range pages {
		pr := kv.OpenPage(d.Arr.PageData(lp.phys))
		for slot := 0; slot < pr.Count(); slot++ {
			ptr := uint64(lp.logical)<<16 | uint64(slot)
			first, total, chunk := d.vlog.fragChunk(ptr)
			switch {
			case first:
				// A dead value's chain may dangle when its later pages were
				// erased; a fresh first fragment simply abandons it.
				remaining = total
			case remaining > 0:
				d.vlog.contMap[pendingPtr] = ptr
			default:
				// Orphan continuation: its head page was erased, so the
				// value is dead; skip.
				continue
			}
			if uint64(len(chunk)) > remaining {
				remaining = 0 // defensive: never underflow on torn chains
			} else {
				remaining -= uint64(len(chunk))
			}
			pendingPtr = ptr
		}
		if lp.seq >= d.vlog.seq {
			d.vlog.seq = lp.seq + 1
		}
	}
}

// adoptGroup rebuilds one group's descriptor from its flash pages.
func (d *Device) adoptGroup(hdr groupHeader, firstPPA nand.PPA) (*group, error) {
	g := &group{
		firstPPA:    firstPPA,
		numPages:    hdr.pages,
		tablePages:  hdr.tablePages,
		count:       hdr.count,
		physBytes:   int64(hdr.pages) * int64(d.cfg.Geometry.PageSize),
		firstHash16: make([]uint16, hdr.pages-hdr.tablePages),
	}
	imgs := make([][]byte, hdr.pages)
	for p := 0; p < hdr.pages; p++ {
		ppa := firstPPA + nand.PPA(p)
		if !d.Arr.Written(ppa) {
			return nil, fmt.Errorf("core: recover: group at %d truncated at page %d", firstPPA, p)
		}
		imgs[p] = d.Arr.PageData(ppa)
		d.Pool.MarkValid(ppa)
	}
	hashes := make([]uint32, 0, hdr.count)
	for p := 0; p < g.entityPages(); p++ {
		pr := kv.OpenPage(imgs[hdr.tablePages+p])
		for i := 0; i < pr.Count(); i++ {
			e, err := pr.Entity(i)
			if err != nil {
				return nil, fmt.Errorf("core: recover: corrupt entity in group %d: %w", firstPPA, err)
			}
			if i == 0 {
				g.firstHash16[p] = uint16(e.Hash >> 16)
			}
			hashes = append(hashes, e.Hash)
			g.bytes += int64(len(e.Key)) + int64(e.Len())
			if e.InLog {
				if d.recoverLogLiveness(e.LogPtr, e.ValueLen) {
					g.logBytes += int64(e.ValueLen)
				}
			}
		}
	}
	// The smallest key is the location table's first entry.
	table := readLocationTable(imgs[:hdr.tablePages], hdr.count)
	if len(table) > 0 {
		pr := kv.OpenPage(imgs[hdr.tablePages+int(table[0].Page)])
		e, err := pr.Entity(int(table[0].Rec))
		if err != nil {
			return nil, err
		}
		g.smallest = append([]byte(nil), e.Key...)
	}
	slices.Sort(hashes)
	b := d.Arr.BlockOf(firstPPA)
	d.groupsAt[b] = append(d.groupsAt[b], g)
	d.Mem.MustReserve(dramLevelLabel, g.entryBytes())
	if !d.cfg.NoHashLists && d.Mem.Reserve(dramHashLabel, int64(4*len(hashes))) {
		g.hashes = hashes
	}
	return g, nil
}

// recoverLogLiveness restores the valid-byte accounting of a value's
// fragment chain, walk-then-commit: the whole chain is resolved first, and
// only a fully durable chain contributes liveness. A broken chain — its
// page never became durable before the power cut, was torn by it, or (after
// the documented early-release escape hatch, see spillConsumable) was even
// reclaimed and rewritten — marks the pointer LOST instead: the entity
// stays in its group but reads treat it as absent and fall through to the
// key's older version. It reports whether the value is live.
func (d *Device) recoverLogLiveness(ptr uint64, valLen int) bool {
	if d.vlog.isLost(ptr) {
		return false
	}
	type fragRef struct {
		ppa nand.PPA
		n   int64
	}
	var frags []fragRef
	cur := ptr
	remaining := uint64(valLen)
	for {
		ppa := nand.PPA(cur >> 16)
		if !d.recLogPages[ppa] {
			break // page never became durable (or was reclaimed)
		}
		first, total, chunk, ok := d.vlog.fragChunkOK(cur)
		if !ok {
			break
		}
		if cur == ptr && (!first || total != uint64(valLen)) {
			break // slot reused by an unrelated value: the original is gone
		}
		frags = append(frags, fragRef{ppa: ppa, n: int64(len(chunk))})
		if uint64(len(chunk)) >= remaining {
			// Chain complete: commit liveness.
			for _, f := range frags {
				if d.vlog.pageValid[f.ppa] == 0 {
					d.Pool.MarkValid(d.vlog.phys(f.ppa))
				}
				d.vlog.pageValid[f.ppa] += f.n
			}
			return true
		}
		remaining -= uint64(len(chunk))
		next, ok := d.vlog.contMap[cur]
		if !ok {
			break
		}
		cur = next
	}
	d.vlog.lost[ptr] = struct{}{}
	d.St.Recovery.LostLogValues++
	return false
}
