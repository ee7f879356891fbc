package core

import (
	"bytes"
	"errors"
	"testing"

	"anykey/internal/kv"
	"anykey/internal/sim"
)

// One key overwritten and synced over and over beside a small resident set
// never fills the buffer, so the journal's bound is met by checkpoints alone:
// no compaction, no fallback flush, no read, never more live journal pages
// than the bound — and a power cycle returns the newest value of every key.
func TestJournalCheckpointHotKey(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		a := newSmall(t, cfg)
		bound := int(cfg.MemtableBytes) / cfg.Geometry.PageSize // of live journal pages
		const resident = 8
		var now sim.Time
		for i := 0; i < resident; i++ {
			now = mustPut(t, a, now, key(i), val(i, 0))
		}
		syncs := 3 * bound
		for v := 1; v <= syncs; v++ {
			now = mustPut(t, a, now, key(0), val(0, v))
			now = mustSync(t, a, now)
			if live := liveJournalPages(a); live > bound {
				t.Fatalf("sync %d: %d live journal pages, bound %d", v, live, bound)
			}
		}
		st, fc := a.St, a.St.Flash()
		if st.TreeCompactions != 0 || st.SyncFlushes != 0 || st.JournalCheckpoints < 2 || fc.TotalReads() != 0 {
			t.Fatalf("%d syncs: %d tree compactions, %d sync flushes, %d checkpoints, %d flash reads; want 0, 0, ≥ 2, 0",
				syncs, st.TreeCompactions, st.SyncFlushes, st.JournalCheckpoints, fc.TotalReads())
		}
		if st.JournalPages > int64(2*syncs) {
			t.Fatalf("%d syncs programmed %d journal pages, want at most two each", syncs, st.JournalPages)
		}

		b, err := Reopen(cfg, a.Array())
		if err != nil {
			t.Fatal(err)
		}
		wantValue(t, b, now, key(0), val(0, syncs))
		for i := 1; i < resident; i++ {
			wantValue(t, b, now, key(i), val(i, 0))
		}
		if b.St.LiveKeys != resident || liveJournalPages(b) > bound {
			t.Fatalf("recovered %d live keys and %d live journal pages; want %d and at most %d",
				b.St.LiveKeys, liveJournalPages(b), resident, bound)
		}
	})
}

// A power cut before every flash operation of one checkpoint — each part's
// program, then each erase of a block the checkpoint killed — loses nothing
// an earlier Sync acknowledged: until its last part is durable the checkpoint
// is an incomplete batch and the pages before it replay; once it is, it alone
// does, whatever the erases have or have not removed yet.
func TestJournalCheckpointPowerCut(t *testing.T) {
	cfg := smallConfig()
	// Wide enough that a checkpoint has two parts.
	const resident = 24
	// prepare brings a fresh device to the eve of the sync under test: the
	// resident set synced, then one key overwritten and synced until the next
	// sync is a checkpoint that kills a whole journal block. It returns the
	// version of the hot key the last completed sync acknowledged; the
	// version after it is written and not yet synced.
	prepare := func(t *testing.T, upTo int) (*Device, sim.Time, int) {
		a := newSmall(t, cfg)
		var now sim.Time
		for i := 0; i < resident; i++ {
			now = mustPut(t, a, now, key(i), val(i, 0))
		}
		now = mustSync(t, a, now)
		for v := 1; ; v++ {
			now = mustPut(t, a, now, key(0), val(0, v))
			if v == upTo {
				return a, now, v - 1
			}
			if v > 200 {
				t.Fatal("no checkpoint ever erased a block")
			}
			before := a.St.JournalCheckpoints
			erases := a.St.Flash().Erases
			now = mustSync(t, a, now)
			if upTo == 0 && a.St.JournalCheckpoints > before && a.St.Flash().Erases > erases {
				return a, now, v
			}
		}
	}
	// The pilot finds the sync and counts its flash operations.
	pilot, _, target := prepare(t, 0)
	if pilot.St.TreeCompactions != 0 || pilot.St.SyncFlushes != 0 {
		t.Fatalf("pilot compacted: %d tree compactions, %d sync flushes", pilot.St.TreeCompactions, pilot.St.SyncFlushes)
	}
	a, now, _ := prepare(t, target)
	before := a.St.Flash()
	mustSync(t, a, now)
	during := a.St.Flash().Sub(before)
	programs, erases := int(during.TotalWrites()), int(during.Erases)
	if programs < 2 || erases < 1 || during.TotalReads() != 0 {
		t.Fatalf("the sync under test ran %d programs, %d erases, %d reads; want a multi-part checkpoint, an erase and no read",
			programs, erases, during.TotalReads())
	}

	for cut := 0; cut < programs+erases; cut++ {
		a, now, acked := prepare(t, target)
		a.Array().SetInjector(&cutBefore{ops: cut})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cut %d never fired", cut)
				}
			}()
			a.Sync(now)
		}()
		a.Array().SetInjector(nil)
		b, err := Reopen(cfg, a.Array())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The hot key's pending version was never acknowledged: it may have
		// survived (the checkpoint completed) or not, nothing older may show.
		v, _, err := b.Get(now, key(0))
		if err != nil || (!bytes.Equal(v, val(0, acked)) && !bytes.Equal(v, val(0, acked+1))) {
			t.Fatalf("cut %d: hot key = %q, %v; want version %d or %d", cut, v, err, acked, acked+1)
		}
		if durable := cut >= programs; durable != bytes.Equal(v, val(0, acked+1)) {
			t.Fatalf("cut %d of %d programs + %d erases: hot key = %q", cut, programs, erases, v)
		}
		for i := 1; i < resident; i++ {
			wantValue(t, b, now, key(i), val(i, 0))
		}
		if b.St.LiveKeys != resident {
			t.Fatalf("cut %d: recovered %d live keys, want %d", cut, b.St.LiveKeys, resident)
		}
		// The recovered journal serves the next generation like any other.
		now = mustPut(t, b, now, key(0), val(0, acked+2))
		now = mustSync(t, b, now)
		c, err := Reopen(cfg, b.Array())
		if err != nil {
			t.Fatalf("cut %d, second cycle: %v", cut, err)
		}
		wantValue(t, c, now, key(0), val(0, acked+2))
		wantValue(t, c, now, key(resident-1), val(resident-1, 0))
	}
}

// A checkpoint carries the buffer's tombstones: after it has superseded the
// batches that first recorded the deletes, they still replay as deletes —
// over the buffered pairs they shadow and over the tree beneath.
func TestJournalCheckpointTombstones(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		a := newSmall(t, cfg)
		var now sim.Time
		// Keys 100.. go through a buffer flush into the tree.
		next := 100
		for a.St.TreeCompactions == 0 {
			now = mustPut(t, a, now, key(next), val(next, 0))
			next++
		}
		inTree := key(100)
		for i := 0; i < 6; i++ {
			now = mustPut(t, a, now, key(i), val(i, 0))
		}
		now = mustSync(t, a, now)
		for _, k := range [][]byte{key(1), key(2), inTree} {
			n, err := a.Delete(now, k)
			if err != nil {
				t.Fatal(err)
			}
			now = n
		}
		now = mustSync(t, a, now)
		compactions := a.St.TreeCompactions
		for v := 1; a.St.JournalCheckpoints < 2; v++ {
			if v > 100 {
				t.Fatal("no checkpoint")
			}
			now = mustPut(t, a, now, key(0), val(0, v))
			now = mustSync(t, a, now)
		}
		if a.St.TreeCompactions != compactions || a.St.SyncFlushes != 0 {
			t.Fatalf("the syncs compacted: %d tree compactions, %d sync flushes", a.St.TreeCompactions-compactions, a.St.SyncFlushes)
		}
		live := a.St.LiveKeys

		b, err := Reopen(cfg, a.Array())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range [][]byte{key(1), key(2), inTree} {
			if v, _, err := b.Get(now, k); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get(%s) after recovery = %q, %v; want not found", k, v, err)
			}
		}
		for i := 3; i < 6; i++ {
			wantValue(t, b, now, key(i), val(i, 0))
		}
		wantValue(t, b, now, key(101), val(101, 0))
		if rec := b.St.Recovery; rec.StaleJournalPagesDiscarded == 0 || b.St.LiveKeys != live {
			t.Fatalf("recovery discarded %d superseded journal pages and counts %d live keys; want some and %d",
				rec.StaleJournalPagesDiscarded, b.St.LiveKeys, live)
		}
	})
}
