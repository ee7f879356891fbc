package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"anykey/internal/fault"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// The central recovery property: after churn + Sync + power cycle, the
// reopened device serves exactly the same data, and keeps working through
// further flushes, compactions and GC.
func TestReopenRecoversEverything(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		a := newSmall(t, cfg)
		rng := rand.New(rand.NewSource(21))
		oracle := map[string][]byte{}
		var now sim.Time
		for op := 0; op < 9000; op++ {
			i := rng.Intn(500)
			k := key(i)
			if rng.Float64() < 0.12 {
				n, err := a.Delete(now, k)
				if err != nil {
					t.Fatal(err)
				}
				now = n
				delete(oracle, string(k))
				continue
			}
			v := val(i, op)
			n, err := a.Put(now, k, v)
			if err != nil {
				t.Fatal(err)
			}
			now = n
			oracle[string(k)] = v
		}
		now, err := a.Sync(now)
		if err != nil {
			t.Fatal(err)
		}

		// Power cycle: a brand new device over the same flash array.
		b, err := Reopen(cfg, a.Array())
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range oracle {
			v, n, err := b.Get(now, []byte(k))
			now = n
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("after reopen: Get(%s) = %q, %v; want %q", k, v, err, want)
			}
		}
		// Deleted and never-written keys must stay absent.
		for i := 500; i < 520; i++ {
			if _, _, err := b.Get(now, key(i)); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("phantom key after reopen: %v", err)
			}
		}
		// Live accounting is re-derived from the mounted tree at recovery.
		if got := b.Stats().LiveKeys; got != int64(len(oracle)) {
			t.Fatalf("recovered LiveKeys = %d, oracle holds %d", got, len(oracle))
		}

		// The reopened device must keep functioning under further churn.
		for op := 0; op < 4000; op++ {
			i := rng.Intn(500)
			v := val(i, 100000+op)
			n, err := b.Put(now, key(i), v)
			if err != nil {
				t.Fatalf("post-reopen put %d: %v", op, err)
			}
			now = n
			oracle[string(key(i))] = v
		}
		for k, want := range oracle {
			v, n, err := b.Get(now, []byte(k))
			now = n
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("post-reopen churn: Get(%s) = %q, %v; want %q", k, v, err, want)
			}
		}
	})
}

// Scans must also survive a power cycle (the location tables are persistent).
func TestReopenScan(t *testing.T) {
	cfg := smallConfig()
	a := newSmall(t, cfg)
	var now sim.Time
	var err error
	for i := 0; i < 400; i++ {
		now, err = a.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = a.Sync(now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reopen(cfg, a.Array())
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := b.Scan(now, key(100), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 || !bytes.Equal(pairs[0].Key, key(100)) || !bytes.Equal(pairs[19].Key, key(119)) {
		t.Fatalf("scan after reopen wrong: %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if !bytes.Equal(p.Value, val(100+i, 0)) {
			t.Fatalf("scan value %d mismatch", i)
		}
	}
}

// Unsynced buffered writes are volatile: Reopen serves the last *synced*
// version.
func TestReopenLosesUnsyncedBuffer(t *testing.T) {
	cfg := smallConfig()
	a := newSmall(t, cfg)
	var now sim.Time
	var err error
	for i := 0; i < 300; i++ {
		now, err = a.Put(now, key(i), val(i, 1))
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = a.Sync(now)
	if err != nil {
		t.Fatal(err)
	}
	// One more write, NOT synced.
	now, err = a.Put(now, key(7), val(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reopen(cfg, a.Array())
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := b.Get(now, key(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, val(7, 1)) {
		t.Fatalf("expected the synced version, got %q", v)
	}
}

func TestReopenGeometryMismatch(t *testing.T) {
	a := newSmall(t, smallConfig())
	other := smallConfig()
	other.Geometry.PageSize = 2048
	if _, err := Reopen(other, a.Array()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSyncEmptyBufferIsFree(t *testing.T) {
	d := newSmall(t, smallConfig())
	before := d.Array().Counters()
	now, err := d.Sync(1000)
	if err != nil || now != 1000 {
		t.Fatalf("Sync on empty buffer: %v %v", now, err)
	}
	c := d.Array().Counters()
	if c.TotalWrites() != before.TotalWrites() {
		t.Fatal("empty Sync wrote pages")
	}
}

// A disturbed flash page must fail recovery's integrity scan rather than
// decode garbage (the Seal/Verify CRC standing in for controller ECC).
func TestReopenDetectsCorruption(t *testing.T) {
	cfg := smallConfig()
	a := newSmall(t, cfg)
	var now sim.Time
	var err error
	for i := 0; i < 300; i++ {
		now, err = a.Put(now, key(i), val(i, 0))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err = a.Sync(now); err != nil {
		t.Fatal(err)
	}
	// Disturb one bit of the first written page we can find.
	arr := a.Array()
	for ppa := 0; ; ppa++ {
		if arr.Written(nand.PPA(ppa)) {
			arr.PageData(nand.PPA(ppa))[100] ^= 0x04
			break
		}
	}
	if _, err := Reopen(cfg, arr); err == nil {
		t.Fatal("corrupted flash accepted by recovery")
	}
}

// TestReopenAfterPowerCut sweeps a deterministic power cut across flash-op
// boundaries (several of which land mid-program, tearing the page being
// written) and checks the recovery contract at each: Reopen succeeds, every
// key committed by the last completed Sync resolves to its committed or a
// newer acknowledged version, and the device keeps working afterwards.
func TestReopenAfterPowerCut(t *testing.T) {
	variants(t, func(t *testing.T, cfg Config) {
		// Pilot run: count the workload's total flash ops (an empty plan
		// injects nothing but still counts), then sweep cuts across them.
		pilot := fault.New(fault.Plan{})
		func() {
			a := newSmall(t, cfg)
			a.Array().SetInjector(pilot)
			churn(t, a, 3000, nil, nil)
		}()
		total := pilot.Ops()
		if total < 22 {
			t.Fatalf("pilot saw only %d flash ops", total)
		}

		tornSeen := false
		for k := int64(1); k <= 10; k++ {
			cut := total * k / 11
			a := newSmall(t, cfg)
			in := fault.New(fault.Plan{Seed: 9, CutAtOp: cut})
			a.Array().SetInjector(in)

			committed := map[string][]byte{}
			allowed := map[string][][]byte{} // acknowledged since the last Sync
			cutFired := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := fault.AsPowerCut(r); !ok {
							panic(r)
						}
						cutFired = true
					}
				}()
				churn(t, a, 3000, committed, allowed)
			}()
			if !cutFired {
				t.Fatalf("cut@%d never fired (pilot total %d)", cut, total)
			}
			var now sim.Time

			b, err := Reopen(cfg, a.Array())
			if err != nil {
				t.Fatalf("cut@%d: reopen: %v", cut, err)
			}
			rec := b.Stats().Recovery
			if !rec.Recovered || !rec.WearReset {
				t.Fatalf("cut@%d: recovery stats not set: %+v", cut, rec)
			}
			if rec.TornPagesSkipped > 0 {
				tornSeen = true
			}
			for k, want := range committed {
				v, n, err := b.Get(now, []byte(k))
				now = n
				if err != nil {
					t.Fatalf("cut@%d: committed key %s: %v (recovery %+v)", cut, k, err, rec)
				}
				ok := bytes.Equal(v, want)
				for _, newer := range allowed[k] {
					ok = ok || bytes.Equal(v, newer)
				}
				if !ok {
					t.Fatalf("cut@%d: committed key %s recovered to foreign value %q", cut, k, v)
				}
			}
			// The recovered device must accept and persist new writes.
			n, err := b.Put(now, []byte("post-cut"), []byte("alive"))
			if err != nil {
				t.Fatalf("cut@%d: post-recovery put: %v", cut, err)
			}
			if _, err := b.Sync(n); err != nil {
				t.Fatalf("cut@%d: post-recovery sync: %v", cut, err)
			}
		}
		if !tornSeen {
			t.Error("no cut in the sweep tore a page — sweep too coarse to exercise torn-tail handling")
		}
	})
}

// churn drives the fixed put/sync workload TestReopenAfterPowerCut uses.
// committed/allowed (either may be nil) receive the oracle state: the last
// version per key at each completed Sync, and everything acknowledged — or
// in flight — since. Versions are recorded BEFORE issuing, because a cut may
// land after a write became partially durable.
func churn(t *testing.T, a *Device, ops int, committed map[string][]byte, allowed map[string][][]byte) {
	t.Helper()
	if allowed == nil {
		allowed = map[string][][]byte{}
	}
	rng := rand.New(rand.NewSource(33))
	var now sim.Time
	for op := 0; op < ops; op++ {
		i := rng.Intn(120)
		k, v := key(i), val(i, op)
		allowed[string(k)] = append(allowed[string(k)], v)
		n, err := a.Put(now, k, v)
		if err != nil {
			t.Fatal(err)
		}
		now = n
		if op%250 == 249 {
			n, err := a.Sync(now)
			if err != nil {
				t.Fatal(err)
			}
			now = n
			if committed != nil {
				for k, vers := range allowed {
					committed[k] = vers[len(vers)-1]
				}
			}
			for k := range allowed {
				delete(allowed, k)
			}
		}
	}
}
