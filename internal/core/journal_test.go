package core

import (
	"bytes"
	"errors"
	"testing"

	"anykey/internal/device/lsm"
	"anykey/internal/ftl"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// liveJournalPages counts the valid pages in journal-owned blocks;
// journalPagesOnFlash every intact journal page still written, valid or not.
func liveJournalPages(d *Device) int {
	n := 0
	for b := 0; b < d.Pool.TotalBlocks(); b++ {
		if d.Pool.Owner(nand.BlockID(b)) == ftl.RegionJournal {
			n += d.Pool.ValidPages(nand.BlockID(b))
		}
	}
	return n
}

func journalPagesOnFlash(d *Device) int {
	n := 0
	for ppa := nand.PPA(0); int(ppa) < d.cfg.Geometry.Pages(); ppa++ {
		if !d.Arr.Written(ppa) {
			continue
		}
		if _, ok := lsm.ReadJournalHeader(kv.OpenPage(d.Arr.PageData(ppa)).Extra(), ppa); ok {
			n++
		}
	}
	return n
}

func mustPut(t *testing.T, d *Device, now sim.Time, k, v []byte) sim.Time {
	t.Helper()
	n, err := d.Put(now, k, v)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustSync(t *testing.T, d *Device, now sim.Time) sim.Time {
	t.Helper()
	n, err := d.Sync(now)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func wantValue(t *testing.T, d *Device, now sim.Time, k, want []byte) {
	t.Helper()
	v, _, err := d.Get(now, k)
	if want == nil {
		if !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%s) = %q, %v; want not found", k, v, err)
		}
		return
	}
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("Get(%s) = %q, %v; want %q", k, v, err, want)
	}
}

// Synced writes that never left the write buffer come back from the journal:
// newest synced version per key, deletes included, unsynced writes not, the
// live counters exact, and the replayed buffer owing the journal nothing.
// The recovered journal still counts toward the bound and is retired by the
// next buffer flush like any other.
func TestJournalReplay(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		a := newSmall(t, cfg)
		var now sim.Time
		for i := 0; i < 30; i++ {
			now = mustPut(t, a, now, key(i), val(i, 0))
		}
		now = mustSync(t, a, now)
		for i := 0; i < 10; i++ {
			now = mustPut(t, a, now, key(i), val(i, 1))
		}
		for i := 10; i < 13; i++ {
			n, err := a.Delete(now, key(i))
			if err != nil {
				t.Fatal(err)
			}
			now = n
		}
		now = mustSync(t, a, now)
		for i := 20; i < 25; i++ {
			now = mustPut(t, a, now, key(i), val(i, 2)) // never synced
		}
		now = mustPut(t, a, now, key(99), val(99, 2)) // never synced, never seen before
		if a.St.TreeCompactions != 0 || a.St.SyncFlushes != 0 {
			t.Fatalf("syncs compacted: %d tree compactions, %d sync flushes", a.St.TreeCompactions, a.St.SyncFlushes)
		}

		b, err := Reopen(cfg, a.Array())
		if err != nil {
			t.Fatal(err)
		}
		rec := b.St.Recovery
		if rec.JournalEntriesReplayed != 43 || rec.StaleJournalPagesDiscarded != 0 {
			t.Fatalf("recovery replayed %d entries and discarded %d stale pages, want 43 and 0",
				rec.JournalEntriesReplayed, rec.StaleJournalPagesDiscarded)
		}
		for i := 0; i < 30; i++ {
			switch {
			case i < 10:
				wantValue(t, b, now, key(i), val(i, 1))
			case i < 13:
				wantValue(t, b, now, key(i), nil)
			default:
				wantValue(t, b, now, key(i), val(i, 0))
			}
		}
		wantValue(t, b, now, key(99), nil)
		if b.St.LiveKeys != 27 || b.MT.AnyUnsynced() {
			t.Fatalf("recovered %d live keys (want 27), buffer unsynced: %v", b.St.LiveKeys, b.MT.AnyUnsynced())
		}
		live := liveJournalPages(b)
		if live == 0 || live != journalPagesOnFlash(b) {
			t.Fatalf("%d journal pages adopted of %d on flash", live, journalPagesOnFlash(b))
		}

		// Fill the recovered buffer until it flushes: the adopted journal dies.
		for i := 100; b.St.TreeCompactions == 0; i++ {
			now = mustPut(t, b, now, key(i), val(i, 3))
		}
		if liveJournalPages(b) != 0 {
			t.Fatalf("%d journal pages valid after the buffer flush", liveJournalPages(b))
		}
		// A second cut right here finds the same journal pages, stale now.
		c, err := Reopen(cfg, b.Array())
		if err != nil {
			t.Fatal(err)
		}
		if rec := c.St.Recovery; rec.StaleJournalPagesDiscarded != int64(live) || rec.JournalEntriesReplayed != 0 {
			t.Fatalf("second recovery: %d stale pages, %d entries replayed; want %d and 0",
				rec.StaleJournalPagesDiscarded, rec.JournalEntriesReplayed, live)
		}
		wantValue(t, c, now, key(5), val(5, 1))
		wantValue(t, c, now, key(11), nil)
		wantValue(t, c, now, key(25), val(25, 0))
	})
}

// A journal page that a completed buffer flush retired must not replay while
// its block waits to be erased: the tree may since hold a newer version of
// its keys. The evidence has to survive the flush's own L1 epoch, which a
// cascade in the same unit can consume and space pressure then erase.
func TestRetiredJournalNotReplayed(t *testing.T) {
	hot := key(7)
	for _, cascade := range []bool{false, true} {
		name := "plain"
		if cascade {
			name = "L1 consumed by a cascade"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			a := newSmall(t, cfg)
			var now sim.Time
			next := 1000
			flushOnce := func() {
				t.Helper()
				for before := a.St.TreeCompactions; a.St.TreeCompactions == before; next++ {
					now = mustPut(t, a, now, key(next), val(next, 0))
				}
			}
			// One round: version 2r-1 of the hot key is journaled, version 2r
			// only buffered, then the buffer fills and flushes — version 2r
			// reaches the tree and the journal is retired. The cascade case
			// repeats the round until the flush overflows L1 into L2.
			version := 0
			for cascaded := false; cascade != cascaded || version == 0; {
				if version > 100 {
					t.Fatal("no flush ever cascaded")
				}
				now = mustPut(t, a, now, hot, val(7, version+1))
				now = mustSync(t, a, now)
				version += 2
				now = mustPut(t, a, now, hot, val(7, version))
				before := a.St.TreeCompactions
				flushOnce()
				cascaded = a.St.TreeCompactions-before >= 2 && len(a.levels[0].groups) == 0
			}
			if liveJournalPages(a) != 0 || journalPagesOnFlash(a) == 0 {
				t.Fatalf("after the flush: %d valid journal pages, %d on flash; want 0 and some",
					liveJournalPages(a), journalPagesOnFlash(a))
			}
			if cascade {
				// Space pressure on the group area only: the consumed L1 epoch
				// is erased, the retired journal block is not.
				for _, s := range a.groupStreams {
					s.Close()
				}
				if _, found := a.reclaimEmpty(now); !found {
					t.Fatal("nothing to reclaim after the cascade")
				}
				for ppa := nand.PPA(0); int(ppa) < cfg.Geometry.Pages(); ppa++ {
					if !a.Arr.Written(ppa) {
						continue
					}
					if hdr, ok := readGroupHeader(kv.OpenPage(a.Arr.PageData(ppa)).Extra()); ok && hdr.level == 1 && hdr.epoch == a.flushEpoch {
						t.Fatalf("the flush's L1 epoch %d is still on flash at page %d", hdr.epoch, ppa)
					}
				}
			}

			b, err := Reopen(cfg, a.Array())
			if err != nil {
				t.Fatal(err)
			}
			wantValue(t, b, now, hot, val(7, version))
			if rec := b.St.Recovery; rec.StaleJournalPagesDiscarded == 0 || rec.JournalEntriesReplayed != 0 {
				t.Fatalf("recovery discarded %d stale journal pages and replayed %d entries; want some and 0",
					rec.StaleJournalPagesDiscarded, rec.JournalEntriesReplayed)
			}
			if b.flushEpoch != a.flushEpoch {
				t.Fatalf("recovered flush epoch %d, device had %d", b.flushEpoch, a.flushEpoch)
			}
		})
	}
}

// The largest legal pair — a kv.MaxKeyLen key with a half-page value — does
// not fit one journal page: its record continues in the batch's next part,
// and so does whatever follows it.
func TestJournalLargestPair(t *testing.T) {
	cfg := Config{
		Geometry:      nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 4, PagesPerBlock: 16, PageSize: 8192},
		MemtableBytes: 64 << 10,
		Seed:          3,
	}
	a := newSmall(t, cfg)
	bigKey := bytes.Repeat([]byte{'K'}, kv.MaxKeyLen)
	bigVal := bytes.Repeat([]byte{'v'}, cfg.Geometry.PageSize/2)
	if len(bigKey)+len(bigVal) <= lsm.JournalPayload(cfg.Geometry.PageSize) {
		t.Fatal("the pair fits one journal page; the test needs a bigger one")
	}
	var now sim.Time
	now = mustPut(t, a, now, key(1), val(1, 0))
	now = mustPut(t, a, now, bigKey, bigVal)
	now = mustPut(t, a, now, key(2), val(2, 0))
	now = mustSync(t, a, now)
	if a.St.JournalPages != 2 || a.St.SyncFlushes != 0 {
		t.Fatalf("sync wrote %d journal pages with %d flushes, want 2 and 0", a.St.JournalPages, a.St.SyncFlushes)
	}

	b, err := Reopen(cfg, a.Array())
	if err != nil {
		t.Fatal(err)
	}
	if n := b.St.Recovery.JournalEntriesReplayed; n != 3 {
		t.Fatalf("replayed %d entries, want 3", n)
	}
	wantValue(t, b, now, key(1), val(1, 0))
	wantValue(t, b, now, bigKey, bigVal)
	wantValue(t, b, now, key(2), val(2, 0))

	// Half a batch is no batch: with the second part gone (as if the cut had
	// torn it) nothing of the sync may replay, not even the record that was
	// whole in the first part.
	c := newSmall(t, cfg)
	now = mustPut(t, c, 0, key(1), val(1, 0))
	now = mustPut(t, c, now, bigKey, bigVal)
	c.Array().SetInjector(&cutBefore{ops: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the cut never fired")
			}
		}()
		c.Sync(now)
	}()
	c.Array().SetInjector(nil)
	r, err := Reopen(cfg, c.Array())
	if err != nil {
		t.Fatal(err)
	}
	if rec := r.St.Recovery; rec.JournalEntriesReplayed != 0 || rec.TornPagesSkipped != 1 {
		t.Fatalf("half a batch replayed %d entries (torn pages skipped: %d)", rec.JournalEntriesReplayed, rec.TornPagesSkipped)
	}
	wantValue(t, r, now, key(1), nil)
}

// cutBefore is a fault injector that cuts power at the flash operation after
// the first `ops` programs and erases (a sync issues no reads), tearing it if
// it is a program.
type cutBefore struct{ ops int }

func (c *cutBefore) step() {
	if c.ops == 0 {
		panic("power cut")
	}
	c.ops--
}
func (c *cutBefore) OnRead(nand.PPA, nand.Cause) int { return 0 }
func (c *cutBefore) OnErase(nand.BlockID, nand.Cause) bool {
	c.step()
	return false
}
func (c *cutBefore) OnProgram(nand.PPA, nand.Cause) bool {
	c.step()
	return false
}

// A buffer flush whose merge comes out empty — nothing but tombstones, and
// nothing beneath them — writes no group, yet it retires the journal like any
// other: it must leave evidence on flash, or a cut would replay the retired
// journal and un-delete what the flush had dropped.
func TestEmptyFlushRetiresJournal(t *testing.T) {
	cfg := smallConfig()
	a := newSmall(t, cfg)
	var now sim.Time
	now = mustPut(t, a, now, key(1), val(1, 0))
	now = mustSync(t, a, now)
	// Delete it, then fill the buffer with deletes of keys that never existed.
	for i := 1; a.St.TreeCompactions == 0; i++ {
		n, err := a.Delete(now, key(i))
		if err != nil {
			t.Fatal(err)
		}
		now = n
	}
	entities := 0
	for _, g := range a.levels[0].groups {
		entities += g.count
	}
	if entities != 0 || a.MT.Len() != 0 {
		t.Fatalf("flush of tombstones left %d L1 entities, %d buffered entries", entities, a.MT.Len())
	}
	now = mustSync(t, a, now) // nothing unsynced: the delete is durable
	wantValue(t, a, now, key(1), nil)

	b, err := Reopen(cfg, a.Array())
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, b, now, key(1), nil)
	if rec := b.St.Recovery; rec.JournalEntriesReplayed != 0 || rec.StaleJournalPagesDiscarded != 1 {
		t.Fatalf("recovery replayed %d journal entries, discarded %d stale pages; want 0 and 1",
			rec.JournalEntriesReplayed, rec.StaleJournalPagesDiscarded)
	}
}
