package anykey

import (
	"bytes"
	"fmt"
	"testing"

	"anykey/internal/cluster"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/fault"
	"anykey/internal/txn"
)

// The atomic-batch crash matrix: power-cut one shard's flash array at evenly
// spaced flash-op boundaries inside an AtomicMultiPut — mid-prepare, around
// the commit record, mid-apply — rebuild both shards from their arrays (a
// machine-wide power loss), run recovery, and hold the atomicity oracle: the
// batch is fully visible or fully absent, never partial.
//
// OpenCluster deliberately rejects Device.Faults, so the harness below builds
// the two-shard cluster by hand on the facade's own internals and attaches
// the injector to shard 0's array directly.

// txnCrashShards builds the per-shard device options exactly as OpenCluster
// does (seed offset by shard index).
func txnCrashShardOpts(opts ClusterOptions, s int) Options {
	o := opts.Device
	o.Seed = opts.Device.Seed + int64(s)
	return o
}

// openTxnCrashCluster builds a serial 2-shard cluster; plan, when non-nil, is
// installed on shard 0's flash array.
func openTxnCrashCluster(t *testing.T, opts ClusterOptions, plan *fault.Plan) (*Cluster, []*core.Device) {
	t.Helper()
	devs := make([]device.KVSSD, 0, opts.Shards)
	cores := make([]*core.Device, 0, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		shardOpts := txnCrashShardOpts(opts, s)
		impl, err := openImpl(&shardOpts)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		cd, ok := impl.(*core.Device)
		if !ok {
			t.Fatalf("shard %d: want *core.Device, got %T", s, impl)
		}
		cores = append(cores, cd)
		devs = append(devs, impl)
	}
	if plan != nil {
		cores[0].Array().SetInjector(fault.New(*plan))
	}
	c, err := cluster.New(devs, cluster.Config{
		QueueDepth: opts.QueueDepth,
		Policy:     opts.Router,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{b: c, opts: opts}
	cl.co = txn.New(txnBackend{c}, opts.Txn)
	return cl, cores
}

// reopenTxnCrashCluster remounts both shards from their surviving flash
// arrays (volatile state gone, as after a power cut) and rebuilds the
// cluster and its transaction layer on top.
func reopenTxnCrashCluster(t *testing.T, opts ClusterOptions, cores []*core.Device) *Cluster {
	t.Helper()
	devs := make([]device.KVSSD, 0, len(cores))
	for s, cd := range cores {
		shardOpts := txnCrashShardOpts(opts, s)
		if err := shardOpts.Validate(); err != nil {
			t.Fatal(err)
		}
		geo, err := shardOpts.geometry()
		if err != nil {
			t.Fatal(err)
		}
		reopened, err := core.Reopen(shardOpts.coreConfig(geo, nil), cd.Array())
		if err != nil {
			t.Fatalf("shard %d reopen: %v", s, err)
		}
		devs = append(devs, reopened)
	}
	c, err := cluster.New(devs, cluster.Config{
		QueueDepth: opts.QueueDepth,
		Policy:     opts.Router,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{b: c, opts: opts}
	cl.co = txn.New(txnBackend{c}, opts.Txn)
	return cl
}

func txnCrashBatch() (keys, vals [][]byte) {
	for i := 0; i < 6; i++ {
		keys = append(keys, []byte(fmt.Sprintf("txc-batch-%02d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('A' + i)}, 64))
	}
	return keys, vals
}

// txnCrashSetup writes and syncs the durable baseline every trial replays.
func txnCrashSetup(t *testing.T, cl *Cluster) {
	t.Helper()
	for i := 0; i < 16; i++ {
		if _, err := cl.Put([]byte(fmt.Sprintf("txc-base-%02d", i)), bytes.Repeat([]byte{'b'}, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
}

func shard0FlashOps(cores []*core.Device) int64 {
	fc := cores[0].Stats().Flash()
	return fc.TotalReads() + fc.TotalWrites() + fc.Erases
}

func TestAtomicBatchCrashMatrix(t *testing.T) {
	opts := smallClusterOpts()
	opts.Shards = 2
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	keys, vals := txnCrashBatch()

	// Pilot: fault-free, to learn which shard-0 flash ops belong to the
	// atomic batch. The cut sweep targets exactly that window.
	pilot, pilotCores := openTxnCrashCluster(t, opts, nil)
	txnCrashSetup(t, pilot)
	opsBefore := shard0FlashOps(pilotCores)
	if _, err := pilot.AtomicMultiPut(keys, vals); err != nil {
		t.Fatalf("pilot atomic batch: %v", err)
	}
	opsAfter := shard0FlashOps(pilotCores)
	window := opsAfter - opsBefore
	if window < 2 {
		t.Fatalf("atomic batch ran only %d flash ops on shard 0 — batch does not span the shard", window)
	}
	// The batch must genuinely cross shards or 2PC never engages.
	shards := map[int]bool{}
	for _, k := range keys {
		shards[pilot.ShardFor(k)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("batch keys all route to one shard: %v", shards)
	}

	// Eight cuts spread over the window — or, when the window is shorter than
	// that (each of the batch's three syncs is one journal program on this
	// shard), one before every flash op in it.
	trials, stride := int64(8), window/9
	if stride == 0 {
		trials, stride = window, 1
	}
	var cuts, committed, rolledForward, rolledBack int
	for tr := int64(1); tr <= trials; tr++ {
		cutAt := opsBefore + stride*tr
		plan := fault.Plan{Seed: tr, CutAtOp: cutAt}
		cl, cores := openTxnCrashCluster(t, opts, &plan)
		txnCrashSetup(t, cl)

		cut := false
		var batchErr error
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsPowerCut(r); !ok {
						panic(r)
					}
					cut = true
				}
			}()
			_, batchErr = cl.AtomicMultiPut(keys, vals)
		}()
		if cut {
			cuts++
		} else if batchErr == nil {
			committed++
		} else {
			t.Fatalf("cut@%d: batch failed without a power cut: %v", cutAt, batchErr)
		}

		// Machine-wide power loss: remount both shards from flash, recover.
		re := reopenTxnCrashCluster(t, opts, cores)
		fwd, back, err := re.RecoverTxns()
		if err != nil {
			t.Fatalf("cut@%d: recovery: %v", cutAt, err)
		}
		rolledForward += fwd
		rolledBack += back

		// Atomicity oracle: the batch is all-or-nothing after recovery.
		visible := 0
		for i, k := range keys {
			v, _, err := re.Get(k)
			if err == nil && bytes.Equal(v, vals[i]) {
				visible++
			}
		}
		if visible != 0 && visible != len(keys) {
			t.Fatalf("cut@%d: batch partially visible after recovery (%d/%d keys)", cutAt, visible, len(keys))
		}
		if !cut && batchErr == nil && visible != len(keys) {
			t.Fatalf("cut@%d: batch acknowledged before the cut but only %d/%d keys survive", cutAt, visible, len(keys))
		}

		// The synced baseline must survive any cut.
		for i := 0; i < 16; i++ {
			k := []byte(fmt.Sprintf("txc-base-%02d", i))
			if v, _, err := re.Get(k); err != nil || len(v) != 48 {
				t.Fatalf("cut@%d: baseline key %s lost after recovery: %q, %v", cutAt, k, v, err)
			}
		}

		// The recovered cluster still commits atomically.
		if _, err := re.AtomicMultiPut([][]byte{[]byte("txc-post-a"), []byte("txc-post-b")},
			[][]byte{[]byte("pa"), []byte("pb")}); err != nil {
			t.Fatalf("cut@%d: post-recovery atomic batch: %v", cutAt, err)
		}
		if v, _, err := re.Get([]byte("txc-post-b")); err != nil || string(v) != "pb" {
			t.Fatalf("cut@%d: post-recovery read: %q, %v", cutAt, v, err)
		}
		re.Close()
		if !cut {
			// A cut unwinds mid-operation with shard locks held (the facade
			// rejects Device.Faults on clusters for exactly this reason), so
			// a cut cluster cannot be Closed — it is simply abandoned; the
			// rebuilt cluster above owns the flash arrays.
			cl.Close()
		}
	}
	if cuts == 0 {
		t.Fatalf("no trial's power cut fired (committed=%d) — the sweep missed the batch window", committed)
	}
	// Both verdicts: a cut between the intents' and the commit record's
	// durability rolls back, one after the commit record rolls forward.
	if rolledForward == 0 || rolledBack == 0 {
		t.Fatalf("%d cuts over a window of %d flash ops rolled %d batches forward and %d back; want both",
			cuts, window, rolledForward, rolledBack)
	}
	t.Logf("crash matrix: %d cuts, %d clean commits, recovery rolled %d forward / %d back",
		cuts, committed, rolledForward, rolledBack)
}
