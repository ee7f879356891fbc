package anykey

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestOpenAllDesigns(t *testing.T) {
	for _, design := range []Design{DesignPinK, DesignAnyKey, DesignAnyKeyPlus, DesignAnyKeyMinus} {
		t.Run(design.String(), func(t *testing.T) {
			dev, err := Open(Options{Design: design, CapacityMB: 64})
			if err != nil {
				t.Fatal(err)
			}
			if dev.Design() != design {
				t.Fatalf("Design() = %v", dev.Design())
			}
			lat, err := dev.Put([]byte("alpha"), []byte("one"))
			if err != nil || lat <= 0 {
				t.Fatalf("Put: lat=%v err=%v", lat, err)
			}
			v, lat, err := dev.Get([]byte("alpha"))
			if err != nil || string(v) != "one" || lat <= 0 {
				t.Fatalf("Get = %q, %v, %v", v, lat, err)
			}
			if _, _, err := dev.Get([]byte("beta")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			if _, err := dev.Delete([]byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := dev.Get([]byte("alpha")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key: %v", err)
			}
		})
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	dev, err := Open(Options{CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	prev := dev.Now()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, err := dev.Put(k, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		if dev.Now().Before(prev) {
			t.Fatal("clock went backwards")
		}
		prev = dev.Now()
	}
	if prev <= 0 {
		t.Fatal("clock never advanced")
	}
}

func TestScanThroughFacade(t *testing.T) {
	dev, err := Open(Options{Design: DesignAnyKeyPlus, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("user:%04d", i))
		if _, err := dev.Put(k, []byte(fmt.Sprintf("profile-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, _, err := dev.Scan([]byte("user:0100"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 || string(pairs[0].Key) != "user:0100" || string(pairs[4].Key) != "user:0104" {
		t.Fatalf("Scan = %v", pairs)
	}
}

func TestStatsAndMetadataExposed(t *testing.T) {
	for _, design := range []Design{DesignPinK, DesignAnyKey, DesignAnyKeyPlus, DesignAnyKeyMinus} {
		t.Run(design.String(), func(t *testing.T) {
			dev, err := Open(Options{Design: design, CapacityMB: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				k := []byte(fmt.Sprintf("key-%06d", i))
				if _, err := dev.Put(k, bytes.Repeat([]byte{1}, 200)); err != nil {
					t.Fatal(err)
				}
			}
			flash := dev.Flash()
			if flash.TotalWrites() == 0 {
				t.Fatal("no flash writes recorded")
			}
			ms := dev.Metadata()
			if len(ms) == 0 {
				t.Fatal("no metadata report")
			}
			st := dev.Stats()
			if st.LiveKeys != 4000 {
				t.Fatalf("LiveKeys = %d", st.LiveKeys)
			}
			// Every design sits on the same block pool, so every design
			// reports its wear.
			if st.Wear == nil {
				t.Fatal("Stats().Wear is nil")
			}
		})
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(Options{CapacityMB: 8, Channels: 8, ChipsPerChannel: 8}); err == nil {
		t.Fatal("impossible geometry accepted")
	}
	if _, err := Open(Options{Design: Design(99)}); err == nil {
		t.Fatal("unknown design accepted")
	}
	bad := []Options{
		{CapacityMB: -1},
		{DRAMBytes: -4096},
		{PageSize: -8192},
		{GroupPages: -8},
		{GroupPages: 1 << 20}, // cannot fit any erase block
		{LogFraction: -0.2},
		{LogFraction: 1.0},
		{LogFraction: 7},
		{MemtableBytes: -1},
		{GrowthFactor: -4},
		{Channels: -8},
		{ChipsPerChannel: -8},
	}
	for _, o := range bad {
		_, err := Open(o)
		if err == nil {
			t.Fatalf("Open(%+v) accepted invalid options", o)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Open(%+v) error %v is not ErrInvalidOptions", o, err)
		}
	}
	// Zero values mean "default" and must stay valid.
	if _, err := Open(Options{}); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	dev, err := Open(Options{CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dev.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := dev.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if _, _, err := dev.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if _, err := dev.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v", err)
	}
	if _, _, err := dev.Scan([]byte("k"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close: %v", err)
	}
	if _, err := dev.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := dev.PowerCycle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("PowerCycle after Close: %v", err)
	}
	if _, err := dev.NewEngine(8); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewEngine after Close: %v", err)
	}
}

func TestNewEngineThroughFacade(t *testing.T) {
	dev, err := Open(Options{CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.NewEngine(0); err == nil {
		t.Fatal("queue depth 0 accepted")
	}
	eng, err := dev.NewEngine(64)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Depth() != 64 {
		t.Fatalf("Depth = %d", eng.Depth())
	}
	for i := 0; i < 2000; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("eng-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Get([]byte("eng-00042"))
	if err != nil || string(c.Value) != "v" {
		t.Fatalf("engine Get = %q, %v", c.Value, err)
	}
	if c.Done.Before(c.Issued) || c.Issued.Before(c.Arrival) {
		t.Fatalf("completion out of order: %+v", c)
	}
	queue, service := eng.Breakdown()
	if service.Count() != eng.Ops() {
		t.Fatalf("service histogram has %d samples for %d ops", service.Count(), eng.Ops())
	}
	if queue.Max() != 0 {
		t.Fatalf("closed-loop queue wait %v", queue.Max())
	}
}

func TestDesignString(t *testing.T) {
	if DesignAnyKeyPlus.String() != "AnyKey+" || DesignPinK.String() != "PinK" {
		t.Fatal("design names wrong")
	}
}

// All four designs must be observationally equivalent key-value stores:
// the same operation sequence produces identical results everywhere.
func TestDesignsAgree(t *testing.T) {
	designs := []Design{DesignPinK, DesignAnyKey, DesignAnyKeyPlus, DesignAnyKeyMinus}
	devs := make([]*Device, len(designs))
	for i, d := range designs {
		dev, err := Open(Options{Design: d, CapacityMB: 64})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	rng := rand.New(rand.NewSource(99))
	key := func(i int) []byte { return []byte(fmt.Sprintf("agree-%05d", i)) }
	for op := 0; op < 6000; op++ {
		i := rng.Intn(700)
		switch r := rng.Float64(); {
		case r < 0.5:
			v := []byte(fmt.Sprintf("val-%d-%d-%s", i, op, bytes.Repeat([]byte{'x'}, rng.Intn(150))))
			for _, dev := range devs {
				if _, err := dev.Put(key(i), v); err != nil {
					t.Fatalf("op %d: %v: %v", op, dev.Design(), err)
				}
			}
		case r < 0.6:
			for _, dev := range devs {
				if _, err := dev.Delete(key(i)); err != nil {
					t.Fatal(err)
				}
			}
		case r < 0.9:
			var ref []byte
			var refErr error
			for j, dev := range devs {
				v, _, err := dev.Get(key(i))
				if j == 0 {
					ref, refErr = v, err
					continue
				}
				if (err == nil) != (refErr == nil) || !bytes.Equal(v, ref) {
					t.Fatalf("op %d: %v disagrees with %v on Get(%s): %q/%v vs %q/%v",
						op, dev.Design(), devs[0].Design(), key(i), v, err, ref, refErr)
				}
			}
		default:
			n := 1 + rng.Intn(20)
			var ref []Pair
			for j, dev := range devs {
				ps, _, err := dev.Scan(key(i), n)
				if err != nil {
					t.Fatal(err)
				}
				if j == 0 {
					ref = make([]Pair, len(ps))
					for k, p := range ps {
						ref[k] = Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
					}
					continue
				}
				if len(ps) != len(ref) {
					t.Fatalf("op %d: %v scan returned %d pairs, %v returned %d",
						op, dev.Design(), len(ps), devs[0].Design(), len(ref))
				}
				for k := range ps {
					if !bytes.Equal(ps[k].Key, ref[k].Key) || !bytes.Equal(ps[k].Value, ref[k].Value) {
						t.Fatalf("op %d: scan pair %d disagrees between %v and %v",
							op, k, dev.Design(), devs[0].Design())
					}
				}
			}
		}
	}
}

// TestScanUnboundedCount: a scan's count is a bound, not a size. Asking for
// math.MaxInt pairs, on a device or one shard of a cluster, returns exactly
// what asking for the live-key count does, on every design.
func TestScanUnboundedCount(t *testing.T) {
	copyPairs := func(ps []Pair) []Pair {
		out := make([]Pair, len(ps))
		for i, p := range ps {
			out[i] = Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
		}
		return out
	}
	same := func(t *testing.T, what string, got, want []Pair) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s: pair %d is %q, want %q", what, i, got[i].Key, want[i].Key)
			}
		}
	}
	// Enough 200-byte values to overflow the write buffer, so the scans
	// merge flash levels as well as the buffer; every tenth key deleted.
	load := func(put func(k, v []byte) error, del func(k []byte) error) {
		for i := 0; i < 3000; i++ {
			k := []byte(fmt.Sprintf("scan-%05d", i))
			if err := put(k, bytes.Repeat([]byte{byte('a' + i%26)}, 200)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3000; i += 10 {
			if err := del([]byte(fmt.Sprintf("scan-%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, d := range []Design{DesignAnyKeyPlus, DesignAnyKey, DesignAnyKeyMinus, DesignPinK} {
		t.Run(d.String(), func(t *testing.T) {
			dev, err := Open(Options{Design: d, CapacityMB: 64})
			if err != nil {
				t.Fatal(err)
			}
			load(func(k, v []byte) error { _, err := dev.Put(k, v); return err },
				func(k []byte) error { _, err := dev.Delete(k); return err })
			live := int(dev.StatsSnapshot().LiveKeys)
			want, _, err := dev.Scan(nil, live)
			if err != nil {
				t.Fatal(err)
			}
			want = copyPairs(want)
			got, _, err := dev.Scan(nil, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			same(t, "Device.Scan", got, want)
			if len(want) != 2700 {
				t.Fatalf("scan of %d live keys returned %d pairs, want 2700", live, len(want))
			}

			cl, err := OpenCluster(ClusterOptions{Shards: 2, Device: Options{Design: d, CapacityMB: 32}})
			if err != nil {
				t.Fatal(err)
			}
			load(func(k, v []byte) error { _, err := cl.Put(k, v); return err },
				func(k []byte) error { _, err := cl.Delete(k); return err })
			for _, ss := range cl.Stats().PerShard {
				c, err := cl.ScanShardAt(ss.Shard, cl.ShardNow(ss.Shard), nil, int(ss.LiveKeys))
				if err != nil {
					t.Fatal(err)
				}
				want := copyPairs(c.Pairs)
				c, err = cl.ScanShardAt(ss.Shard, cl.ShardNow(ss.Shard), nil, math.MaxInt)
				if err != nil {
					t.Fatal(err)
				}
				same(t, fmt.Sprintf("Cluster.ScanShardAt(%d)", ss.Shard), c.Pairs, want)
			}
		})
	}
}

func TestSyncAndPowerCycle(t *testing.T) {
	dev, err := Open(Options{Design: DesignAnyKeyPlus, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("pc-%05d", i))
		if _, err := dev.Put(k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 17 {
		k := []byte(fmt.Sprintf("pc-%05d", i))
		v, _, err := dev.Get(k)
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("after power cycle: Get(%s) = %q, %v", k, v, err)
		}
	}
	// The recovered device keeps working.
	if _, err := dev.Put([]byte("pc-after"), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := dev.Get([]byte("pc-after")); err != nil || string(v) != "alive" {
		t.Fatalf("post-recovery write: %q, %v", v, err)
	}
	// PinK power-cycling is not modelled.
	pk, _ := Open(Options{Design: DesignPinK, CapacityMB: 64})
	if err := pk.PowerCycle(); err == nil {
		t.Fatal("PinK power cycle should be rejected")
	}
}

// Designs and routing policies round-trip through their command-line
// spellings, parse in any case, and reject unknown names.
func TestDesignAndRouterText(t *testing.T) {
	type text interface {
		MarshalText() ([]byte, error)
		UnmarshalText([]byte) error
	}
	for _, tc := range []struct {
		spelling string
		in       text // value the spelling parses into
		want     any  // parsed value; nil for a rejected name
	}{
		{"pink", new(Design), DesignPinK},
		{"anykey", new(Design), DesignAnyKey},
		{"anykey+", new(Design), DesignAnyKeyPlus},
		{"anykey-", new(Design), DesignAnyKeyMinus},
		{"AnyKey+", new(Design), DesignAnyKeyPlus},
		{"PINK", new(Design), DesignPinK},
		{"anykey++", new(Design), nil},
		{"", new(Design), nil},
		{"consistent", new(RouterPolicy), RouteConsistent},
		{"modulo", new(RouterPolicy), RouteModulo},
		{"Modulo", new(RouterPolicy), RouteModulo},
		{"ring", new(RouterPolicy), nil},
	} {
		err := tc.in.UnmarshalText([]byte(tc.spelling))
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q parsed, want an error", tc.spelling)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spelling, err)
			continue
		}
		var got any
		switch v := tc.in.(type) {
		case *Design:
			got = *v
		case *RouterPolicy:
			got = *v
		}
		if got != tc.want {
			t.Errorf("%q parsed as %v, want %v", tc.spelling, got, tc.want)
		}
		out, err := tc.in.MarshalText()
		if err != nil || string(out) != strings.ToLower(tc.spelling) {
			t.Errorf("%q marshals back as %q (%v), want %q", tc.spelling, out, err, strings.ToLower(tc.spelling))
		}
		if name := fmt.Sprint(got); !strings.EqualFold(name, string(out)) {
			t.Errorf("String() %q and MarshalText %q disagree", name, out)
		}
	}
	if _, err := Design(99).MarshalText(); err == nil {
		t.Error("an out-of-range design marshalled")
	}
	if _, err := RouterPolicy(99).MarshalText(); err == nil {
		t.Error("an out-of-range policy marshalled")
	}
}

// The device's own operations resume from the latest clock of an engine it
// handed out: after a 3 ms open-loop burst through a QD-64 engine, the next
// Put is not charged for the burst, and Now has moved past it.
func TestFacadeResumesAfterEngine(t *testing.T) {
	dev, err := Open(Options{Design: DesignAnyKeyPlus, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	key := []byte("storm")
	if _, err := dev.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	eng, err := dev.NewEngine(64)
	if err != nil {
		t.Fatal(err)
	}
	epoch := eng.Now()
	const us = Duration(1000) // durations are in nanoseconds
	for at := Duration(0); at < 3000*us; at += 5 * us {
		if _, err := eng.GetAt(epoch.Add(at), key); err != nil {
			t.Fatal(err)
		}
	}
	lat, err := dev.Put([]byte("after"), []byte("value"))
	if err != nil {
		t.Fatal(err)
	}
	if lat >= 100*us {
		t.Errorf("Put after the burst took %v of simulated time, want under 100µs", lat)
	}
	if dev.Now() < eng.Now() {
		t.Errorf("device clock %v is behind the engine's %v", dev.Now(), eng.Now())
	}
}

// The resume rule holds on the Sync and Scan paths too, and across a power
// cycle: each facade operation after a QD-64 burst issues at the burst's
// end, and an engine handed out after the cycle still moves the device
// clock.
func TestFacadeResumesAfterEngineOnEveryPath(t *testing.T) {
	dev, err := Open(Options{Design: DesignAnyKeyPlus, CapacityMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	key := []byte("storm")
	if _, err := dev.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	// Journal the pair now, so the Sync below has no page to program.
	if _, err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	const us = Duration(1000) // durations are in nanoseconds
	// afterBurst runs 3 ms of open-loop Gets on a fresh QD-64 engine, then
	// the facade operation op.
	afterBurst := func(name string, op func() (Duration, error)) {
		t.Helper()
		eng, err := dev.NewEngine(64)
		if err != nil {
			t.Fatal(err)
		}
		epoch := eng.Now()
		for at := Duration(0); at < 3000*us; at += 5 * us {
			if _, err := eng.GetAt(epoch.Add(at), key); err != nil {
				t.Fatal(err)
			}
		}
		lat, err := op()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lat >= 100*us {
			t.Errorf("%s after the burst took %v of simulated time, want under 100µs", name, lat)
		}
		if dev.Now() < eng.Now() {
			t.Errorf("%s: device clock %v is behind the engine's %v", name, dev.Now(), eng.Now())
		}
	}
	afterBurst("Sync", dev.Sync)
	afterBurst("Scan", func() (Duration, error) {
		_, lat, err := dev.Scan(key, 4)
		return lat, err
	})
	if err := dev.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	afterBurst("Put after PowerCycle", func() (Duration, error) {
		return dev.Put([]byte("after"), []byte("value"))
	})
}
