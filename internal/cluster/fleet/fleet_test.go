package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"anykey/internal/cluster"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/trace"
)

func smallDevice(t testing.TB, seed int64) device.KVSSD {
	t.Helper()
	geo := nand.Geometry{Channels: 4, ChipsPerChannel: 4, BlocksPerChip: 4, PagesPerBlock: 64, PageSize: 8192}
	d, err := core.New(core.Config{Geometry: geo, Plus: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// freshFleet builds n small AnyKey+ members; the factory seeds replacement
// devices deterministically off the member ID.
func freshFleet(t testing.TB, n int, repl Replication) *Fleet {
	f, _ := fleetWithDevices(t, n, repl)
	return f
}

// fleetWithDevices is freshFleet that also hands back every member device
// it built, keyed by member ID: a replacement overwrites its dead
// predecessor.
func fleetWithDevices(t testing.TB, n int, repl Replication) (*Fleet, map[int]device.KVSSD) {
	t.Helper()
	built := map[int]device.KVSSD{}
	devs := make([]device.KVSSD, 0, n)
	for i := 0; i < n; i++ {
		built[i] = smallDevice(t, int64(1+i))
		devs = append(devs, built[i])
	}
	f, err := New(devs, Config{
		Repl: repl,
		NewDevice: func(memberID int) (device.KVSSD, *trace.Tracer, error) {
			built[memberID] = smallDevice(t, int64(1000+memberID))
			return built[memberID], nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, built
}

func fkey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func fval(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 48) }

func TestReplicationOwnersDistinct(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 3, WriteQuorum: 2})
	for i := 0; i < 500; i++ {
		res := f.Put(fkey(i), fval(i))
		if res.Err != nil {
			t.Fatalf("put %d: %v", i, res.Err)
		}
		if len(res.Owners) != 3 {
			t.Fatalf("key %d: %d owners, want 3", i, len(res.Owners))
		}
		seen := map[int]bool{}
		for _, o := range res.Owners {
			if seen[o] {
				t.Fatalf("key %d: duplicate owner %d in %v", i, o, res.Owners)
			}
			seen[o] = true
		}
		if len(res.Replicas) != 3 {
			t.Fatalf("key %d: wrote %d replicas, want 3", i, len(res.Replicas))
		}
	}
}

func TestReadOneWithFallbackAfterKill(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	const n = 300
	for i := 0; i < n; i++ {
		if res := f.Put(fkey(i), fval(i)); !res.Acked {
			t.Fatalf("put %d not acked: %v", i, res.Err)
		}
	}
	if err := f.KillShard(1, cluster.KillPowerCut); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Repl.DeadMembers != 1 {
		t.Fatalf("DeadMembers = %d, want 1", st.Repl.DeadMembers)
	}
	// Every key must still read back: either its primary is alive, or the
	// fallback replica serves.
	for i := 0; i < n; i++ {
		res := f.Get(fkey(i))
		if res.Err != nil {
			t.Fatalf("get %d after kill: %v", i, res.Err)
		}
		if !bytes.Equal(res.Value, fval(i)) {
			t.Fatalf("get %d after kill: wrong payload", i)
		}
		if res.Served == 1 {
			t.Fatalf("get %d served by dead member", i)
		}
	}
	if got := f.Stats().Repl.ReadFallbacks; got == 0 {
		t.Fatal("expected nonzero read fallbacks with a dead primary")
	}
}

func TestQuorumNotMetAndShardDown(t *testing.T) {
	f := freshFleet(t, 3, Replication{Factor: 2, WriteQuorum: 2})
	if err := f.KillShard(0, cluster.KillGrownBad); err != nil {
		t.Fatal(err)
	}
	sawQuorumFail := false
	for i := 0; i < 200 && !sawQuorumFail; i++ {
		res := f.Put(fkey(i), fval(i))
		if res.Err != nil {
			if !errors.Is(res.Err, ErrQuorumNotMet) {
				t.Fatalf("put %d: %v, want ErrQuorumNotMet", i, res.Err)
			}
			if res.Acked {
				t.Fatalf("put %d acked despite quorum failure", i)
			}
			sawQuorumFail = true
		}
	}
	if !sawQuorumFail {
		t.Fatal("no key hit the dead member's replica set in 200 tries")
	}
	if f.Stats().Repl.QuorumFailures == 0 {
		t.Fatal("QuorumFailures counter not bumped")
	}

	// Kill the rest: every replica set is now down.
	if err := f.KillShard(1, cluster.KillPowerCut); err != nil {
		t.Fatal(err)
	}
	if err := f.KillShard(2, cluster.KillPowerCut); err != nil {
		t.Fatal(err)
	}
	if res := f.Get(fkey(0)); !errors.Is(res.Err, ErrShardDown) {
		t.Fatalf("get with all members dead: %v, want ErrShardDown", res.Err)
	}
	if res := f.Put(fkey(0), fval(0)); !errors.Is(res.Err, ErrShardDown) {
		t.Fatalf("put with all members dead: %v, want ErrShardDown", res.Err)
	}
}

func TestSentinelErrorsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want error
	}{
		{fmt.Errorf("wrapped: %w", ErrQuorumNotMet), ErrQuorumNotMet},
		{fmt.Errorf("wrapped: %w", ErrShardDown), ErrShardDown},
		{fmt.Errorf("wrapped: %w", ErrMigrationInProgress), ErrMigrationInProgress},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("errors.Is(%v, %v) = false", tc.err, tc.want)
		}
	}
}

func TestReadRepairHealsDivergence(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 1, ReadMode: ReadRepair})
	key, good := fkey(7), fval(7)
	res := f.Put(key, good)
	if !res.Acked {
		t.Fatalf("put: %v", res.Err)
	}
	// Corrupt the second replica directly (divergence a partial write
	// failure would leave behind).
	second := res.Owners[1]
	stale := cluster.Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: key, Value: []byte("stale")}
	if _, _, err := f.Shard(second).Do(stale, cluster.Serving); err != nil {
		t.Fatal(err)
	}
	got := f.Get(key)
	if got.Err != nil || !bytes.Equal(got.Value, good) {
		t.Fatalf("read-repair get: %v %q", got.Err, got.Value)
	}
	if f.Stats().Repl.ReadRepairs == 0 {
		t.Fatal("ReadRepairs counter not bumped")
	}
	// The divergent replica now holds the serving value.
	comp, _, err := f.Shard(second).Do(cluster.Request{Kind: trace.OpGet, Arrival: host.WhenFree, Key: key}, cluster.Serving)
	if err != nil || !bytes.Equal(comp.Value, good) {
		t.Fatalf("replica after repair: %v %q", err, comp.Value)
	}
}

func TestAddShardMigratesBoundedFraction(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	const n = 600
	for i := 0; i < n; i++ {
		if res := f.Put(fkey(i), fval(i)); !res.Acked {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	mig, err := f.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShard(); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("second AddShard: %v, want ErrMigrationInProgress", err)
	}
	// Mid-migration double-read: every key must still be readable while the
	// stream is only partially drained.
	if done, err := mig.Step(50); err != nil || done {
		t.Fatalf("step: done=%v err=%v", done, err)
	}
	for i := 0; i < n; i += 7 {
		res := f.Get(fkey(i))
		if res.Err != nil || !bytes.Equal(res.Value, fval(i)) {
			t.Fatalf("mid-migration get %d: %v", i, res.Err)
		}
	}
	if err := mig.Run(); err != nil {
		t.Fatal(err)
	}
	if !mig.Done() {
		t.Fatal("migration not done after Run")
	}
	st := f.Stats()
	if st.Repl.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Repl.Epoch)
	}
	// Adding one member to a 4-member R=2 ring should move roughly
	// R/(N+1) = 2/5 of key-replicas at most; assert a generous bound that
	// still catches "moved everything" bugs.
	if st.Repl.MigratedKeys == 0 {
		t.Fatal("no keys migrated onto the new member")
	}
	if frac := float64(st.Repl.MigratedKeys) / n; frac > 0.6 {
		t.Fatalf("migrated %.0f%% of keys; expected a bounded fraction", frac*100)
	}
	// Post-commit: every key reads back through the new ring only.
	for i := 0; i < n; i++ {
		res := f.Get(fkey(i))
		if res.Err != nil || !bytes.Equal(res.Value, fval(i)) {
			t.Fatalf("post-migration get %d: %v", i, res.Err)
		}
	}
}

func TestRemoveShardRetiresMember(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	const n = 400
	for i := 0; i < n; i++ {
		if res := f.Put(fkey(i), fval(i)); !res.Acked {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	mig, err := f.RemoveShard(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Run(); err != nil {
		t.Fatal(err)
	}
	state, _, err := f.State(2)
	if err != nil || state != "retired" {
		t.Fatalf("member 2 state = %q (%v), want retired", state, err)
	}
	if got := f.RingMembers(); len(got) != 3 || slices.Contains(got, 2) {
		t.Fatalf("ring members after remove: %v", got)
	}
	for i := 0; i < n; i++ {
		res := f.Get(fkey(i))
		if res.Err != nil || !bytes.Equal(res.Value, fval(i)) {
			t.Fatalf("post-remove get %d: %v", i, res.Err)
		}
		if res.Served == 2 {
			t.Fatalf("get %d served by retired member", i)
		}
	}

	// Shrinking to exactly the replication factor is legal; below it must
	// refuse.
	mig2, err := f.RemoveShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig2.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RemoveShard(1); err == nil {
		t.Fatal("RemoveShard below replication floor succeeded")
	}
}

func TestKillRebuildRestoresReplica(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	const n = 400
	for i := 0; i < n; i++ {
		if res := f.Put(fkey(i), fval(i)); !res.Acked {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	if err := f.KillShard(0, cluster.KillGrownBad); err != nil {
		t.Fatal(err)
	}
	rb, err := f.RebuildShard(0)
	if err != nil {
		t.Fatal(err)
	}
	state, _, _ := f.State(0)
	if state != "rebuilding" {
		t.Fatalf("state during rebuild = %q", state)
	}
	// Writes during the rebuild land on the replacement too, and must win
	// over the refill's older copies. A write touching the rebuilding
	// member may fail quorum (rebuilding replicas don't count) yet still
	// execute — the device cannot be un-asked — so track acked and
	// merely-attempted keys separately.
	overwritten := map[int]bool{}
	attempted := map[int]bool{}
	stepped := false
	for i := 0; i < n; i += 25 {
		res := f.PutAt(nil, fkey(i), []byte("fresh-version"))
		attempted[i] = true
		if res.Acked {
			overwritten[i] = true
		}
		if !stepped {
			if _, err := rb.Step(40); err != nil {
				t.Fatal(err)
			}
			stepped = true
		}
	}
	if err := rb.Run(); err != nil {
		t.Fatal(err)
	}
	state, _, _ = f.State(0)
	if state != "alive" {
		t.Fatalf("state after rebuild = %q", state)
	}
	st := f.Stats()
	if st.Repl.Rebuilds != 1 || st.Repl.RebuiltKeys == 0 {
		t.Fatalf("rebuild counters: %+v", st.Repl)
	}
	// Every key readable; overwritten keys must carry the fresh version —
	// including when member 0 serves them.
	for i := 0; i < n; i++ {
		res := f.Get(fkey(i))
		if res.Err != nil {
			t.Fatalf("get %d after rebuild: %v", i, res.Err)
		}
		switch {
		case overwritten[i]:
			if !bytes.Equal(res.Value, []byte("fresh-version")) {
				t.Fatalf("get %d after rebuild: got %q, want fresh-version (served by %d)", i, res.Value, res.Served)
			}
		case attempted[i]:
			// Unacked write: either version is a correct read.
			if !bytes.Equal(res.Value, []byte("fresh-version")) && !bytes.Equal(res.Value, fval(i)) {
				t.Fatalf("get %d after rebuild: got %q, want one of the written versions", i, res.Value)
			}
		default:
			if !bytes.Equal(res.Value, fval(i)) {
				t.Fatalf("get %d after rebuild: got %q, want original (served by %d)", i, res.Value, res.Served)
			}
		}
	}
	// The replacement must actually hold its share again: read its device
	// directly for a key it owns.
	owned := 0
	for i := 0; i < n; i++ {
		res := f.Get(fkey(i))
		if res.Served == 0 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("rebuilt member serves no reads")
	}
}

func TestRebuildRequiresDeadMember(t *testing.T) {
	f := freshFleet(t, 3, Replication{Factor: 2, WriteQuorum: 2})
	if _, err := f.RebuildShard(1); err == nil {
		t.Fatal("rebuilding an alive member succeeded")
	}
	if err := f.KillShard(1, cluster.KillPowerCut); err != nil {
		t.Fatal(err)
	}
	if err := f.KillShard(1, cluster.KillPowerCut); err == nil {
		t.Fatal("double kill succeeded")
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() (Stats, []byte) {
		f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
		for i := 0; i < 300; i++ {
			f.Put(fkey(i), fval(i))
		}
		f.KillShard(1, cluster.KillPowerCut)
		rb, err := f.RebuildShard(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i += 3 {
			f.Get(fkey(i))
			rb.Step(10)
		}
		if err := rb.Run(); err != nil {
			t.Fatal(err)
		}
		res := f.Get(fkey(42))
		return f.Stats(), res.Value
	}
	a, av := run()
	b, bv := run()
	if a.Repl != b.Repl {
		t.Fatalf("replication counters diverge:\n%+v\n%+v", a.Repl, b.Repl)
	}
	if a.Now != b.Now || a.Ops != b.Ops {
		t.Fatalf("clock/ops diverge: %v/%d vs %v/%d", a.Now, a.Ops, b.Now, b.Ops)
	}
	if !bytes.Equal(av, bv) {
		t.Fatal("read values diverge between identical runs")
	}
}

func TestScanAtSingleMember(t *testing.T) {
	f := freshFleet(t, 3, Replication{Factor: 2, WriteQuorum: 2})
	for i := 0; i < 100; i++ {
		f.Put(fkey(i), fval(i))
	}
	at := f.ShardNow(0)
	comp, err := f.ScanAt(0, at, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Pairs) == 0 {
		t.Fatal("scan returned no pairs")
	}
	var prev []byte
	for _, p := range comp.Pairs {
		if prev != nil && kv.Compare(prev, p.Key) >= 0 {
			t.Fatal("scan pairs out of order")
		}
		prev = append(prev[:0], p.Key...)
	}
	f.KillShard(0, cluster.KillPowerCut)
	if _, err := f.ScanAt(0, at, nil, 10); !errors.Is(err, ErrShardDown) {
		t.Fatalf("scan on dead member: %v, want ErrShardDown", err)
	}
}

func TestKillReleasesDeadMemberMemory(t *testing.T) {
	f, devs := fleetWithDevices(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	for i := 0; i < 300; i++ {
		if res := f.Put(fkey(i), fval(i)); !res.Acked {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	dead := devs[1]
	if before := device.FootprintOf(dead); before.ResidentBytes == 0 {
		t.Fatal("member 1 holds no pages before the kill")
	}
	if err := f.KillShard(1, cluster.KillGrownBad); err != nil {
		t.Fatal(err)
	}
	// The kill frees the dead hardware's payload store eagerly: a long-lived
	// fleet must not retain dead shards' pages.
	if after := device.FootprintOf(dead); after.ResidentBytes != 0 || after.LivePages != 0 {
		t.Fatalf("dead member still resident: %+v", after)
	}
	if fp := device.FootprintOf(devs[0]); fp.ResidentBytes == 0 {
		t.Fatal("kill released a surviving member's store")
	}
	// Survivors keep serving; a rebuild gets fresh hardware with a live store.
	rb, err := f.RebuildShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if devs[1] == dead {
		t.Fatal("the rebuild built no replacement device")
	}
	if fp := device.FootprintOf(devs[1]); fp.ResidentBytes == 0 {
		t.Fatal("rebuilt member's replacement store is empty")
	}
	st := f.Stats()
	if st.Store.LivePages == 0 {
		t.Fatalf("fleet stats carry no store footprint: %+v", st.Store)
	}
}

// TestReplicatedAllocations pins what one replicated operation allocates at
// R=2 on AnyKey+ members: the result's owner and replica slices, the
// replicas' device work and, for a read, the serving replica's caller-owned
// copy.
func TestReplicatedAllocations(t *testing.T) {
	f := freshFleet(t, 4, Replication{Factor: 2, WriteQuorum: 2})
	keys, vals := make([][]byte, 512), make([][]byte, 512)
	for i := range keys {
		keys[i], vals[i] = fkey(i), fval(i)
		if res := f.Put(keys[i], vals[i]); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	i := 0
	put := testing.AllocsPerRun(2000, func() {
		i++
		if res := f.Put(keys[i%512], vals[i%512]); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	get := testing.AllocsPerRun(2000, func() {
		i++
		if res := f.Get(keys[i%512]); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	if put > 8 || get > 4 {
		t.Fatalf("R=2 Put %v and Get %v allocs/op, want at most 8 and 4", put, get)
	}
}
