package txn

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"anykey/internal/kv"
	"anykey/internal/sim"
)

// fakeBE is an in-memory routed KV backend with a per-key durability model
// mirroring the simulator's: Apply lands writes in current state and marks
// them unsynced; SyncShards makes a shard's state durable; crash reverts
// each unsynced key independently per a policy — exactly the "acknowledged
// but unsynced writes may or may not survive, per key" contract the real
// device implements.
type fakeBE struct {
	n     int
	cur   []map[string]string
	dur   []map[string]string
	uns   []map[string]bool
	clock []sim.Time

	applyOps   int // ops applied so far, across batches
	panicAfter int // panic BEFORE applying op #panicAfter (1-based); 0 = never
	syncCalls  int // SyncShards invocations so far
	failSyncAt int // fail SyncShards call #failSyncAt (1-based) without syncing; 0 = never
}

type fakeCut struct{ op int }

func newFake(n int) *fakeBE {
	f := &fakeBE{n: n}
	for i := 0; i < n; i++ {
		f.cur = append(f.cur, map[string]string{})
		f.dur = append(f.dur, map[string]string{})
		f.uns = append(f.uns, map[string]bool{})
		f.clock = append(f.clock, 0)
	}
	return f
}

func (f *fakeBE) Shards() int { return f.n }

func (f *fakeBE) ShardFor(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(f.n))
}

func (f *fakeBE) Now(s int) sim.Time { return f.clock[s] }

func (f *fakeBE) Get(key []byte) ([]byte, bool, error) {
	s := f.ShardFor(key)
	f.clock[s] += 1000
	v, ok := f.cur[s][string(key)]
	if !ok {
		return nil, false, nil
	}
	return []byte(v), true, nil
}

func (f *fakeBE) Apply(ops []Op) error {
	for i := range ops {
		f.applyOps++
		if f.panicAfter > 0 && f.applyOps >= f.panicAfter {
			panic(fakeCut{op: f.applyOps})
		}
		s := f.ShardFor(ops[i].Key)
		k := string(ops[i].Key)
		f.clock[s] += 2000
		if ops[i].Delete {
			delete(f.cur[s], k)
		} else {
			f.cur[s][k] = string(ops[i].Value)
		}
		f.uns[s][k] = true
	}
	return nil
}

func (f *fakeBE) SyncShards(shards []int) error {
	f.syncCalls++
	if f.failSyncAt > 0 && f.syncCalls == f.failSyncAt {
		return fmt.Errorf("injected sync failure (call %d)", f.syncCalls)
	}
	for _, s := range shards {
		f.clock[s] += 5000
		for k := range f.uns[s] {
			if v, ok := f.cur[s][k]; ok {
				f.dur[s][k] = v
			} else {
				delete(f.dur[s], k)
			}
		}
		f.uns[s] = map[string]bool{}
	}
	return nil
}

func (f *fakeBE) ScanShard(s int, start []byte, n int) ([]kv.Pair, error) {
	var keys []string
	for k := range f.cur[s] {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > n {
		keys = keys[:n]
	}
	out := make([]kv.Pair, len(keys))
	for i, k := range keys {
		out[i] = kv.Pair{Key: []byte(k), Value: []byte(f.cur[s][k])}
	}
	return out, nil
}

// crash reverts every unsynced key per keep: kept keys survive as written,
// dropped keys revert to their last durable state — independently per key.
func (f *fakeBE) crash(keep func(shard int, key string) bool) {
	for s := 0; s < f.n; s++ {
		for k := range f.uns[s] {
			if keep(s, k) {
				if v, ok := f.cur[s][k]; ok {
					f.dur[s][k] = v
				} else {
					delete(f.dur[s], k)
				}
			}
		}
		cur := map[string]string{}
		for k, v := range f.dur[s] {
			cur[k] = v
		}
		f.cur[s] = cur
		f.uns[s] = map[string]bool{}
	}
	f.panicAfter = 0
}

func (f *fakeBE) reservedCount() int {
	n := 0
	for s := 0; s < f.n; s++ {
		for k := range f.cur[s] {
			if strings.HasPrefix(k, reservedPrefix) {
				n++
			}
		}
	}
	return n
}

func (f *fakeBE) lookup(key string) (string, bool) {
	s := f.ShardFor([]byte(key))
	v, ok := f.cur[s][key]
	return v, ok
}

func opts(t *testing.T, o Options) Options {
	t.Helper()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestIncrAppendCAS(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: -1}))

	v, _, err := co.Incr([]byte("ctr"), 5)
	if err != nil || v != 5 {
		t.Fatalf("Incr absent = %d, %v; want 5, nil", v, err)
	}
	v, _, err = co.Incr([]byte("ctr"), -2)
	if err != nil || v != 3 {
		t.Fatalf("Incr = %d, %v; want 3, nil", v, err)
	}
	if got, _ := be.lookup("ctr"); got != "3" {
		t.Fatalf("stored counter = %q; want 3", got)
	}

	if _, err := co.Append([]byte("log"), []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Append([]byte("log"), []byte("cd")); err != nil {
		t.Fatal(err)
	}
	if got, _ := be.lookup("log"); got != "abcd" {
		t.Fatalf("appended value = %q; want abcd", got)
	}

	if _, err := co.CompareAndSwap([]byte("cas"), nil, []byte("v1")); err != nil {
		t.Fatalf("CAS expect-absent: %v", err)
	}
	if _, err := co.CompareAndSwap([]byte("cas"), []byte("v1"), []byte("v2")); err != nil {
		t.Fatalf("CAS match: %v", err)
	}
	_, err = co.CompareAndSwap([]byte("cas"), []byte("v1"), []byte("v3"))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("CAS mismatch = %v; want ErrConflict", err)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf("CAS mismatch should not wrap ErrAborted: %v", err)
	}
	if got, _ := be.lookup("cas"); got != "v2" {
		t.Fatalf("cas value = %q; want v2", got)
	}
}

func TestOCCConflictAndRetrySentinels(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{MaxRetries: 3, HotThreshold: -1}))
	if _, _, err := co.Incr([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}

	tx := co.Begin()
	if _, err := tx.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Incr([]byte("k"), 1); err != nil { // intervening writer
		t.Fatal(err)
	}
	tx.Put([]byte("k"), []byte("9"))
	err := tx.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit = %v; want ErrConflict", err)
	}

	// A body that manufactures a conflict on every attempt exhausts the
	// retry budget and reports both sentinels.
	attempts := 0
	_, err = co.Run(func(tx *Tx) error {
		attempts++
		if _, err := tx.Get([]byte("k")); err != nil {
			return err
		}
		if _, _, err := co.Incr([]byte("k"), 1); err != nil {
			return err
		}
		tx.Put([]byte("k"), []byte("0"))
		return nil
	})
	if !errors.Is(err, ErrAborted) || !errors.Is(err, ErrConflict) {
		t.Fatalf("exhausted retries = %v; want ErrAborted and ErrConflict", err)
	}
	if attempts != 4 { // 1 + MaxRetries
		t.Fatalf("attempts = %d; want 4", attempts)
	}
	st := co.Stats()
	if st.Aborts != 1 || st.Retries != 3 {
		t.Fatalf("stats = %+v; want 1 abort, 3 retries", st)
	}
}

func TestMissingKeyAndCounterErrors(t *testing.T) {
	be := newFake(2)
	co := New(be, opts(t, Options{}))
	tx := co.Begin()
	if _, err := tx.Get([]byte("absent")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get absent = %v; want kv.ErrNotFound", err)
	}
	tx.Abort()
	if _, _, err := co.Incr([]byte("text"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Append([]byte("text"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Incr([]byte("text"), 1); err == nil {
		t.Fatal("Incr of non-counter value should error")
	}
}

func TestHotPromotionAndSplitMerge(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: 2, SplitOps: 4, MaxRetries: 1}))
	key := []byte("hot")
	if _, _, err := co.Incr(key, 0); err != nil {
		t.Fatal(err)
	}

	// Manufacture HotThreshold validation conflicts on the key.
	for i := 0; i < 2; i++ {
		tx := co.Begin()
		if _, err := tx.Incr(key, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := co.Incr(key, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("commit %d = %v; want conflict", i, err)
		}
	}
	if st := co.Stats(); st.HotKeys != 1 || st.HotNow != 1 {
		t.Fatalf("after conflicts: %+v; want hot key", st)
	}
	base, _, err := co.Incr(key, 0) // buffered read of the running total
	if err != nil {
		t.Fatal(err)
	}

	// Buffered commutative ops must not conflict with each other even when
	// fully interleaved: begin both before committing either.
	tx1, tx2 := co.Begin(), co.Begin()
	if _, err := tx1.Incr(key, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Incr(key, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("buffered commit 1: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("buffered commit 2: %v", err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(base + 110)
	if got, _ := be.lookup("hot"); got != want {
		t.Fatalf("merged value = %q; want %s", got, want)
	}
	st := co.Stats()
	if st.SplitMerges == 0 || st.SplitOps < 2 {
		t.Fatalf("split stats = %+v; want merges and buffered ops", st)
	}

	// SplitOps ops auto-close the phase without an explicit Flush.
	for i := 0; i < 4; i++ {
		if _, _, err := co.Incr(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := co.Stats().SplitMerges; got < st.SplitMerges+1 {
		t.Fatalf("auto merge count = %d; want > %d", got, st.SplitMerges)
	}
}

func TestSplitPhaseReadFlushes(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: 1, SplitOps: 1000, MaxRetries: 1}))
	key := []byte("hot")
	// One conflict promotes the key at threshold 1.
	tx := co.Begin()
	if _, err := tx.Incr(key, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Incr(key, 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	if _, _, err := co.Incr(key, 3); err != nil { // buffered
		t.Fatal(err)
	}
	// A transactional read must observe the merged value, not the stale base.
	rtx := co.Begin()
	got, err := rtx.Get(key)
	rtx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "10" {
		t.Fatalf("read during phase = %q; want 10", got)
	}
	if co.Stats().SplitMerges != 1 {
		t.Fatalf("read should have closed the phase: %+v", co.Stats())
	}
}

// TestBufferedCommitConflictsStaleReader is the lost-update regression: a
// buffered split-phase commit must bump its key's version the moment the op
// joins the phase, so a transaction that read the key earlier aborts instead
// of overwriting the merge with a stale derivation.
func TestBufferedCommitConflictsStaleReader(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: 1, SplitOps: 1000, MaxRetries: 1}))
	key := []byte("hot")
	if _, _, err := co.Incr(key, 0); err != nil {
		t.Fatal(err)
	}
	// One manufactured conflict promotes the key at threshold 1.
	tx := co.Begin()
	if _, err := tx.Incr(key, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.Incr(key, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("promotion commit = %v; want conflict", err)
	}

	// tx1 reads the hot key; tx2 then commits a buffered Incr. The merge has
	// not landed yet, but tx1's blind overwrite must already be doomed.
	tx1 := co.Begin()
	if _, err := tx1.Get(key); err != nil {
		t.Fatal(err)
	}
	tx2 := co.Begin()
	if _, err := tx2.Incr(key, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("buffered commit: %v", err)
	}
	tx1.Put(key, []byte("overwrite"))
	if err := tx1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale Put over buffered Incr = %v; want ErrConflict", err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := be.lookup("hot"); got != "11" {
		t.Fatalf("merged value = %q; want 11 (buffered increment lost)", got)
	}
}

// TestCommitSyncInDoubt fails the commit record's sync and checks the verdict:
// ErrInDoubt, not ErrAborted — the outcome belongs to Recover, which rolls
// the batch back here because the record never became durable.
func TestCommitSyncInDoubt(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: -1}))
	ops := []Op{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}
	be.failSyncAt = 2 // call 1 is the prepare sync, call 2 the commit-record sync
	_, err := co.Atomic(ops)
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("commit-sync failure = %v; want ErrInDoubt", err)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatalf("in-doubt commit must not claim aborted: %v", err)
	}

	// Crash dropping everything unsynced: the best-effort record erasures are
	// lost, the durable intents reappear, the commit record does not — so
	// Recover must roll the batch back and leave no user data.
	be.crash(func(int, string) bool { return false })
	forward, back, err := co.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if forward != 0 || back != 1 {
		t.Fatalf("recover = %d forward, %d back; want 0, 1", forward, back)
	}
	for _, k := range []string{"a", "b"} {
		if v, ok := be.lookup(k); ok {
			t.Fatalf("rolled-back key %q survived with %q", k, v)
		}
	}
	if n := be.reservedCount(); n != 0 {
		t.Fatalf("%d reserved records left after recover", n)
	}
}

// TestPhaseOpsResetAfterMidCommitFlush: when one commit both buffers a hot op
// and triggers a mid-commit flush (here via a cold Put to a buffered key),
// the merged ops must not be recounted toward the next phase's close trigger.
func TestPhaseOpsResetAfterMidCommitFlush(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{HotThreshold: 100, SplitOps: 2, MaxRetries: 1}))
	co.hot["a"], co.hot["b"] = true, true

	// Open a phase holding one buffered delta on b.
	if _, _, err := co.Incr([]byte("b"), 1); err != nil {
		t.Fatal(err)
	}
	if co.phaseOps != 1 {
		t.Fatalf("phaseOps = %d; want 1", co.phaseOps)
	}

	tx := co.Begin()
	if _, err := tx.Incr([]byte("a"), 5); err != nil {
		t.Fatal(err)
	}
	tx.Put([]byte("b"), []byte("x")) // cold write to the buffered key: flushes mid-commit
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if co.phaseOps != 0 {
		t.Fatalf("phaseOps after mid-commit flush = %d; want 0 (merged ops recounted)", co.phaseOps)
	}
	if len(co.pendKeys) != 0 {
		t.Fatalf("phase still holds %d buffers", len(co.pendKeys))
	}
	if got, _ := be.lookup("a"); got != "5" {
		t.Fatalf("a = %q; want 5", got)
	}
	if got, _ := be.lookup("b"); got != "x" {
		t.Fatalf("b = %q; want x", got)
	}
}

func TestAtomicAppliesAndCleansUp(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{}))
	var ops []Op
	for i := 0; i < 8; i++ {
		ops = append(ops, Op{Key: []byte(fmt.Sprintf("a:%d", i)), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	ops = append(ops, Op{Key: []byte("a:0:gone"), Delete: true})
	id, err := co.Atomic(ops)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("atomic batch id should be non-zero")
	}
	for i := 0; i < 8; i++ {
		if got, ok := be.lookup(fmt.Sprintf("a:%d", i)); !ok || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("a:%d = %q, %v", i, got, ok)
		}
	}
	if n := be.reservedCount(); n != 0 {
		t.Fatalf("%d transaction records left after clean commit", n)
	}
	st := co.Stats()
	if st.AtomicBatches != 1 || st.Prepares != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiKeyCommitIsAtomic(t *testing.T) {
	be := newFake(4)
	co := New(be, opts(t, Options{}))
	_, err := co.Run(func(tx *Tx) error {
		tx.Put([]byte("x1"), []byte("a"))
		tx.Put([]byte("x2"), []byte("b"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if co.Stats().AtomicBatches != 1 {
		t.Fatalf("multi-key commit should use the 2PC path: %+v", co.Stats())
	}
	if be.reservedCount() != 0 {
		t.Fatal("records left behind")
	}
}

// TestAtomicCrashMatrix cuts the fake backend's power before every apply
// position of an atomic batch, under three per-key survival policies for
// unsynced writes, and requires recovery to leave the batch all-or-nothing.
func TestAtomicCrashMatrix(t *testing.T) {
	keeps := map[string]func(int, string) bool{
		"drop-all": func(int, string) bool { return false },
		"keep-all": func(int, string) bool { return true },
		"by-hash": func(s int, k string) bool {
			h := 0
			for _, c := range k {
				h += int(c)
			}
			return h%2 == 0
		},
	}
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Op{Key: []byte(fmt.Sprintf("m:%d", i)), Value: []byte(fmt.Sprintf("w%d", i))})
	}

	// Discover the op count of a clean run, then cut before each position.
	clean := newFake(4)
	if _, err := New(clean, opts(t, Options{})).Atomic(ops); err != nil {
		t.Fatal(err)
	}
	total := clean.applyOps

	for name, keep := range keeps {
		for cut := 1; cut <= total; cut++ {
			be := newFake(4)
			co := New(be, opts(t, Options{}))
			committed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(fakeCut); !ok {
							panic(r)
						}
					}
				}()
				be.panicAfter = cut
				if _, err := co.Atomic(ops); err == nil {
					committed = true
				}
			}()
			be.crash(keep)

			// A fresh coordinator on the remounted state, as after reboot.
			co2 := New(be, opts(t, Options{}))
			if _, _, err := co2.Recover(); err != nil {
				t.Fatalf("%s cut=%d: recover: %v", name, cut, err)
			}
			present := 0
			for i := range ops {
				if got, ok := be.lookup(string(ops[i].Key)); ok {
					if got != string(ops[i].Value) {
						t.Fatalf("%s cut=%d: %s = %q", name, cut, ops[i].Key, got)
					}
					present++
				}
			}
			if present != 0 && present != len(ops) {
				t.Fatalf("%s cut=%d: %d/%d keys visible — partial batch", name, cut, present, len(ops))
			}
			if committed && present != len(ops) {
				t.Fatalf("%s cut=%d: acknowledged batch lost", name, cut)
			}
			if n := be.reservedCount(); n != 0 {
				t.Fatalf("%s cut=%d: %d records left after recovery", name, cut, n)
			}
		}
	}
}

func TestRecordKeyRoutingAndCodec(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7, 16} {
		be := newFake(shards)
		co := New(be, opts(t, Options{}))
		for s := 0; s < shards; s++ {
			k := co.recordKey(markerIntent, 42, s)
			if got := be.ShardFor(k); got != s {
				t.Fatalf("shards=%d: intent key routed to %d, want %d", shards, got, s)
			}
			marker, id, shard, ok := parseRecordKey(k)
			if !ok || marker != markerIntent || id != 42 || shard != s {
				t.Fatalf("parse = %v %v %v %v", marker, id, shard, ok)
			}
		}
	}
	ops := []Op{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: []byte("k2"), Delete: true},
		{Key: []byte(""), Value: []byte("")},
	}
	dec, err := decodeOps(encodeOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ops) {
		t.Fatalf("decoded %d ops", len(dec))
	}
	for i := range ops {
		if string(dec[i].Key) != string(ops[i].Key) || string(dec[i].Value) != string(ops[i].Value) || dec[i].Delete != ops[i].Delete {
			t.Fatalf("op %d round-trip: %+v vs %+v", i, dec[i], ops[i])
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	var o Options
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.MaxRetries != 8 || o.HotThreshold != 8 || o.SplitOps != 64 || o.Backoff == 0 || o.MaxBackoff != 16*o.Backoff {
		t.Fatalf("defaults = %+v", o)
	}
	neg := Options{MaxRetries: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative MaxRetries should be rejected")
	}
	off := Options{HotThreshold: -1}
	if err := off.Validate(); err != nil || off.HotThreshold != -1 {
		t.Fatalf("HotThreshold -1 should validate: %v %+v", err, off)
	}
	if d := off.delay(0); d != off.Backoff {
		t.Fatalf("delay(0) = %v", d)
	}
	if d := off.delay(30); d != off.MaxBackoff {
		t.Fatalf("delay(30) = %v; want cap %v", d, off.MaxBackoff)
	}
}
