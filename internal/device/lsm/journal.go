package lsm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// The write-buffer journal makes a write durable without compacting it
// (DESIGN.md §4). Sync encodes the entries written since the last journal
// write into one byte stream, cuts the stream into page-sized parts and
// programs them into the journal's own region; the entries stay in the write
// buffer and keep serving reads. A completed buffer flush has moved
// everything the journal covers into the tree, so it retires the whole
// journal: the pages are invalidated only after the flush's output is
// durable, and the blocks, dead as a whole, are erased without relocation the
// next time space is needed.
//
// The journal is bounded by the buffer it shadows: it never holds more live
// pages than the buffer has (MemtableBytes / PageSize). A sync that would
// exceed the bound rewrites the journal from the buffer instead — a
// checkpoint: the whole buffer, each key once, as one batch that supersedes
// every page before it, which are invalidated once its last part is durable
// and whose blocks, wholly dead, are erased on the spot. A checkpoint may take
// at most half the bound, so it frees at least as many pages as it costs and
// a small sync stays at two programs amortised; only a buffer too large for
// that — one the flush gate is about to flush anyway — is flushed instead.
//
// One Sync is one batch of pages, numbered part 0..parts-1 of the batch and
// by a sequence number that never repeats. A record (a pair may exceed one
// page: the key alone can be kv.MaxKeyLen) simply continues in the batch's
// next part. Recovery replays only complete batches — a batch cut short by a
// power cut belongs to a Sync that never returned — in sequence order,
// starting at the newest complete checkpoint if there is one.
//
// Every page also carries Front.Epoch as of its writing, the design's
// rebuild clock, by which the design's recovery tells a page written after
// the last completed buffer flush from one that flush retired but whose
// block has not been erased yet.

const (
	journalMagic   uint16 = 0x7A11
	journalHdrSize        = 18 // magic u16, seq u64, stamp u32, part u16, parts u16

	// journalCheckpoint is the top bit of the header's parts field: the batch
	// is a checkpoint.
	journalCheckpoint uint16 = 1 << 15

	journalTombstone byte = 1 << 0 // record flag
)

// JournalPayload returns how many bytes of a batch's record stream one
// journal page carries.
func JournalPayload(pageSize int) int {
	return kv.NewPageWriter(make([]byte, pageSize), nil).Free() - journalHdrSize
}

// JournalPage is one journal page found by a recovery scan.
type JournalPage struct {
	PPA nand.PPA
	// Seq is the page's position in the journal's append stream.
	Seq uint64
	// Stamp is Front.Epoch as of the page's writing.
	Stamp uint32

	part, parts int
	checkpoint  bool
}

// ReadJournalHeader decodes the header of the journal page at ppa from its
// extra region; ok is false for pages of any other kind.
func ReadJournalHeader(extra []byte, ppa nand.PPA) (JournalPage, bool) {
	if len(extra) < journalHdrSize || binary.LittleEndian.Uint16(extra) != journalMagic {
		return JournalPage{}, false
	}
	parts := binary.LittleEndian.Uint16(extra[16:])
	return JournalPage{
		PPA:        ppa,
		Seq:        binary.LittleEndian.Uint64(extra[2:]),
		Stamp:      binary.LittleEndian.Uint32(extra[10:]),
		part:       int(binary.LittleEndian.Uint16(extra[14:])),
		parts:      int(parts &^ journalCheckpoint),
		checkpoint: parts&journalCheckpoint != 0,
	}, true
}

// appendJournalRecord encodes one write-buffer entry: flags, key length,
// value length, key, value.
func appendJournalRecord(b []byte, e *memtable.Entry) []byte {
	var flags byte
	if e.Tombstone {
		flags = journalTombstone
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(e.Key)))
	b = binary.AppendUvarint(b, uint64(len(e.Value)))
	b = append(b, e.Key...)
	return append(b, e.Value...)
}

// cutJournalRecord decodes the record at the head of a batch's stream and
// returns what follows it. key and value alias the stream.
func cutJournalRecord(stream []byte) (tombstone bool, key, value, rest []byte, ok bool) {
	klen, kn := binary.Uvarint(stream[1:])
	if kn <= 0 {
		return false, nil, nil, nil, false
	}
	vlen, vn := binary.Uvarint(stream[1+kn:])
	if vn <= 0 {
		return false, nil, nil, nil, false
	}
	body := stream[1+kn+vn:]
	if klen > uint64(len(body)) || vlen > uint64(len(body))-klen {
		return false, nil, nil, nil, false
	}
	end := klen + vlen
	return stream[0]&journalTombstone != 0, body[:klen:klen], body[klen:end:end], body[end:], true
}

// journalBound is the most live pages the journal may hold: the page count
// of the buffer it shadows.
func (f *Front) journalBound() int {
	return int(f.Cfg.MemtableBytes / int64(f.Cfg.Geometry.PageSize))
}

// JournalLive reports whether the journal holds any live page, i.e. whether
// the next completed buffer flush has a journal to retire.
func (f *Front) JournalLive() bool { return len(f.jPages) > 0 }

// Sync makes every acknowledged write durable (the device-level FLUSH
// command) by programming the entries written since the last sync into the
// journal: ⌈unsynced bytes / page payload⌉ programs dispatched at the sync
// instant, no reads, and nothing unsynced costs no time. It completes when
// those programs and whatever background work is still in flight have. A sync
// that would push the journal past its bound writes a checkpoint of the whole
// buffer instead and drops the pages before it; only when the buffer is too
// large for one — more than half the bound — does it flush the buffer. A
// design with more volatile state than the buffer (AnyKey's open value-log
// page) continues from the returned instant.
func (f *Front) Sync(at sim.Time) (sim.Time, error) {
	f.St.Syncs++
	if !f.MT.AnyUnsynced() {
		return at, nil
	}
	stream := f.jRecords[:0]
	f.MT.Unsynced(func(e *memtable.Entry) { stream = appendJournalRecord(stream, e) })
	f.jRecords = stream[:0]

	parts := f.journalParts(stream)
	checkpoint := len(f.jPages)+parts > f.journalBound()
	if checkpoint {
		var fits bool
		if stream, fits = f.checkpointStream(); !fits {
			f.St.SyncFlushes++
			end, err := f.flush(sim.Max(at, f.BgDoneAt))
			if err != nil {
				return at, err
			}
			return end, nil
		}
		parts = f.journalParts(stream)
	}

	older := len(f.jPages)
	end := at
	for part := 0; part < parts; part++ {
		chunk := stream[part*f.jPayload : min((part+1)*f.jPayload, len(stream))]
		t, err := f.programJournalPage(at, chunk, part, parts, checkpoint)
		if err != nil {
			// Part of a batch is no batch: recovery will skip these pages.
			f.dropJournalPages(f.jPages[older:])
			f.jPages = f.jPages[:older]
			return at, err
		}
		end = sim.Max(end, t)
	}
	if checkpoint {
		// The checkpoint is durable: everything before it is redundant, and
		// the blocks that just died whole (with any an earlier flush retired)
		// are erased now rather than left to fill the flash.
		f.St.JournalCheckpoints++
		f.dropJournalPages(f.jPages[:older])
		f.jPages = f.jPages[:copy(f.jPages, f.jPages[older:])]
		f.reclaimJournal(end)
	}
	f.MT.MarkSynced()
	f.BgDoneAt = sim.Max(end, f.BgDoneAt)
	return f.BgDoneAt, nil
}

// checkpointStream encodes the whole write buffer — each key once, in key
// order, tombstones included, synced or not — as one batch's record stream.
// fits is false when that takes more than half the journal's bound.
func (f *Front) checkpointStream() (stream []byte, fits bool) {
	half := f.journalBound() / 2
	// A record is longer than its pair, so a buffer whose pairs alone exceed
	// half the bound need not be encoded to know the answer (and the scratch
	// never grows to the size of a full buffer).
	if f.MT.Bytes() > int64(half)*int64(f.jPayload) {
		return nil, false
	}
	stream = f.jRecords[:0]
	for it := f.MT.IterFrom(nil); it.Valid(); it.Next() {
		stream = appendJournalRecord(stream, it.Entry())
	}
	f.jRecords = stream[:0]
	return stream, f.journalParts(stream) <= half
}

// journalParts is the number of pages a batch's record stream takes.
func (f *Front) journalParts(stream []byte) int {
	return (len(stream) + f.jPayload - 1) / f.jPayload
}

func (f *Front) dropJournalPages(pages []nand.PPA) {
	for _, ppa := range pages {
		f.Pool.MarkInvalid(ppa)
	}
}

// programJournalPage writes one part of a batch to the journal's stream. A
// program failure retires the block as grown-bad; the page is re-issued into
// a fresh one (the pages already in the retired block stay readable).
func (f *Front) programJournalPage(at sim.Time, chunk []byte, part, parts int, checkpoint bool) (sim.Time, error) {
	extra := slices.Grow(f.jExtra[:0], journalHdrSize+len(chunk))[:journalHdrSize]
	binary.LittleEndian.PutUint16(extra, journalMagic)
	binary.LittleEndian.PutUint64(extra[2:], f.jSeq)
	binary.LittleEndian.PutUint32(extra[10:], f.Epoch)
	binary.LittleEndian.PutUint16(extra[14:], uint16(part))
	flagged := uint16(parts)
	if checkpoint {
		flagged |= journalCheckpoint
	}
	binary.LittleEndian.PutUint16(extra[16:], flagged)
	extra = append(extra, chunk...)
	f.jExtra = extra[:0]

	img := f.jArena.Acquire()
	kv.NewPageWriter(img, extra)
	kv.SealPage(img)
	for {
		ppa, ok := f.jAlloc.NextPage()
		if !ok {
			t, err := f.EnsureFree(at, 1)
			if err != nil {
				return t, err
			}
			at = t
			if ppa, ok = f.jAlloc.NextPage(); !ok {
				return at, kv.ErrDeviceFull
			}
		}
		done, err := f.Arr.Program(at, ppa, img, nand.CauseFlush)
		if err != nil {
			f.jAlloc.Close()
			continue
		}
		f.Pool.MarkValid(ppa)
		f.jPages = append(f.jPages, ppa)
		f.jSeq++
		f.St.JournalPages++
		f.jArena.Release(img)
		return done, nil
	}
}

// flush runs the design's buffer flush from start and, once its output is
// durable, retires the journal: every entry a journal page covers is in the
// tree now.
func (f *Front) flush(start sim.Time) (sim.Time, error) {
	end, err := f.Hooks.Flush(start)
	if err != nil {
		return end, err
	}
	f.BgDoneAt = end
	f.dropJournalPages(f.jPages)
	f.jPages = f.jPages[:0]
	f.jAlloc.Close()
	return end, nil
}

// reclaimJournal erases every journal block whose pages a buffer flush has
// retired or a checkpoint superseded, all dispatched at `at`. Nothing is ever
// relocated: a journal block holds only journal pages and they die together.
func (f *Front) reclaimJournal(at sim.Time) (sim.Time, bool) {
	end, freed := at, false
	for {
		b, ok := f.Pool.VictimBelow(ftl.RegionJournal, 0)
		if !ok {
			return end, freed
		}
		end = sim.Max(end, f.Pool.Release(at, b, nand.CauseGC))
		freed = true
	}
}

// ReplayJournal is the recovery half of the journal. pages is every journal
// page the scan found intact, in any order. Pages stamped before `from` were
// retired by a completed buffer flush, and pages before the newest complete
// checkpoint are superseded by it (a checkpoint a power cut tore is an
// incomplete batch like any other, and the pages it had not yet invalidated
// still count); both are counted as stale. The rest are replayed into the
// write buffer, complete batches only, in sequence order, and their pages
// adopted as the live journal. account sees each insert
// exactly as the design's Put/Delete accounting would (the entry it replaced,
// then the pair). Replayed entries are durable already, so none of them is
// left unsynced.
func (f *Front) ReplayJournal(pages []JournalPage, from uint32,
	account func(prev memtable.Entry, had bool, key, value []byte, tombstone bool)) (replayed, stale int64, err error) {
	slices.SortFunc(pages, func(a, b JournalPage) int { return cmp.Compare(a.Seq, b.Seq) })
	live := pages[:0]
	for _, p := range pages {
		// The sequence and the epoch continue past everything ever written,
		// replayed or not.
		f.jSeq = max(f.jSeq, p.Seq+1)
		f.Epoch = max(f.Epoch, p.Stamp)
		if p.Stamp < from {
			stale++
			continue
		}
		live = append(live, p)
	}
	newest := 0
	for i := range live {
		if live[i].checkpoint && completeBatch(live[i:]) != nil {
			newest = i
		}
	}
	stale += int64(newest)
	live = live[newest:]
	for len(live) > 0 {
		batch := completeBatch(live)
		if batch == nil {
			live = live[1:]
			continue
		}
		live = live[len(batch):]
		var stream []byte
		for _, p := range batch {
			stream = append(stream, kv.OpenPage(f.Arr.PageData(p.PPA)).Extra()[journalHdrSize:]...)
			f.Pool.MarkValid(p.PPA)
			f.jPages = append(f.jPages, p.PPA)
		}
		for len(stream) > 0 {
			tombstone, key, value, rest, ok := cutJournalRecord(stream)
			if !ok {
				return replayed, stale, fmt.Errorf("lsm: journal batch at page %d: corrupt record", batch[0].PPA)
			}
			stream = rest
			var prev memtable.Entry
			var had bool
			if tombstone {
				prev, had = f.MT.Delete(key)
			} else {
				prev, had = f.MT.Put(key, value)
			}
			account(prev, had, key, value, tombstone)
			replayed++
		}
	}
	f.MT.MarkSynced()
	return replayed, stale, nil
}

// completeBatch returns the batch that starts at pages[0] when all its parts
// are present — consecutive in sequence, numbered 0..parts-1 — and nil
// otherwise. pages is sorted by sequence.
func completeBatch(pages []JournalPage) []JournalPage {
	first := pages[0]
	if first.part != 0 || first.parts < 1 || first.parts > len(pages) {
		return nil
	}
	for i, p := range pages[:first.parts] {
		if p.Seq != first.Seq+uint64(i) || p.part != i || p.parts != first.parts || p.checkpoint != first.checkpoint {
			return nil
		}
	}
	return pages[:first.parts]
}
