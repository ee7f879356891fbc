package host_test

import (
	"fmt"
	"math/rand"
	"testing"

	"anykey"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
)

// legacyPool reimplements the closed-loop worker pool the harness used
// before the host engine existed: per-worker clocks, earliest worker
// issues next, caller moves the clock to the completion time. It is the
// reference the engine must reproduce bit for bit.
type legacyPool struct{ clocks []sim.Time }

func newLegacyPool(n int) *legacyPool { return &legacyPool{clocks: make([]sim.Time, n)} }

func (p *legacyPool) next() *sim.Time {
	best := 0
	for i := 1; i < len(p.clocks); i++ {
		if p.clocks[i] < p.clocks[best] {
			best = i
		}
	}
	return &p.clocks[best]
}

// op is one request of a deterministic mixed workload.
type op struct {
	kind int // 0 put, 1 get, 2 delete, 3 scan
	key  []byte
	val  []byte
	n    int
}

func mixedOps(seed int64, count int) []op {
	rng := rand.New(rand.NewSource(seed))
	key := func(i int) []byte { return []byte(fmt.Sprintf("host-%05d", i)) }
	ops := make([]op, 0, count)
	for i := 0; i < count; i++ {
		id := rng.Intn(600)
		switch r := rng.Float64(); {
		case r < 0.55:
			ops = append(ops, op{kind: 0, key: key(id),
				val: []byte(fmt.Sprintf("val-%d-%04d-%0*d", id, i, 40+rng.Intn(120), 7))})
		case r < 0.85:
			ops = append(ops, op{kind: 1, key: key(id)})
		case r < 0.92:
			ops = append(ops, op{kind: 2, key: key(id)})
		default:
			ops = append(ops, op{kind: 3, key: key(id), n: 1 + rng.Intn(10)})
		}
	}
	return ops
}

// runLegacy drives ops against the device implementation directly with a
// hand-rolled worker pool — the pre-engine closed loop, explicit issue
// times and all — and returns the per-op latency sequence.
func runLegacy(t *testing.T, dev device.KVSSD, depth int, ops []op) []sim.Duration {
	t.Helper()
	pool := newLegacyPool(depth)
	lats := make([]sim.Duration, 0, len(ops))
	for i, o := range ops {
		clock := pool.next()
		issue := *clock
		var done sim.Time
		var err error
		switch o.kind {
		case 0:
			done, err = dev.Put(issue, o.key, o.val)
		case 1:
			_, done, err = dev.Get(issue, o.key)
			if err == kv.ErrNotFound {
				err = nil
			}
		case 2:
			done, err = dev.Delete(issue, o.key)
		case 3:
			_, done, err = dev.Scan(issue, o.key, o.n)
		}
		if err != nil {
			t.Fatalf("legacy op %d: %v", i, err)
		}
		*clock = done
		lats = append(lats, done.Sub(issue))
	}
	return lats
}

// freshImpl builds the same firmware anykey.Open mounts for a 32 MiB
// AnyKey+ device, but exposed as the raw device interface the legacy pool
// drove before the engine existed.
func freshImpl(t *testing.T) device.KVSSD {
	t.Helper()
	geo := nand.Geometry{Channels: 8, ChipsPerChannel: 8, BlocksPerChip: 1, PagesPerBlock: 64, PageSize: 8192}
	d, err := core.New(core.Config{Geometry: geo, Plus: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runEngine drives the same ops through the host engine.
func runEngine(t *testing.T, dev *anykey.Device, depth int, ops []op) []sim.Duration {
	t.Helper()
	eng, err := dev.NewEngine(depth)
	if err != nil {
		t.Fatal(err)
	}
	lats := make([]sim.Duration, 0, len(ops))
	for i, o := range ops {
		var c anykey.Completion
		var err error
		switch o.kind {
		case 0:
			c, err = eng.Put(o.key, o.val)
		case 1:
			c, err = eng.Get(o.key)
			if err == anykey.ErrNotFound {
				err = nil
			}
		case 2:
			c, err = eng.Delete(o.key)
		case 3:
			c, err = eng.Scan(o.key, o.n)
		}
		if err != nil {
			t.Fatalf("engine op %d: %v", i, err)
		}
		if c.QueueWait() != 0 {
			t.Fatalf("closed-loop op %d has queue wait %v", i, c.QueueWait())
		}
		lats = append(lats, c.Latency())
	}
	return lats
}

func freshDevice(t *testing.T) *anykey.Device {
	t.Helper()
	dev, err := anykey.Open(anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// At every queue depth — and in particular at QD=1, the legacy closed
// loop — the engine must reproduce the hand-rolled worker pool's latency
// sequence bit for bit.
func TestEngineMatchesLegacyPool(t *testing.T) {
	for _, depth := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("qd%d", depth), func(t *testing.T) {
			ops := mixedOps(int64(depth)*7+1, 4000)
			legacy := runLegacy(t, freshImpl(t), depth, ops)
			engine := runEngine(t, freshDevice(t), depth, ops)
			for i := range ops {
				if legacy[i] != engine[i] {
					t.Fatalf("op %d: legacy latency %v (%dns), engine %v (%dns)",
						i, legacy[i], int64(legacy[i]), engine[i], int64(engine[i]))
				}
			}
		})
	}
}

// A QD=64 run must be exactly reproducible across repeats.
func TestEngineDeterministicAtDepth64(t *testing.T) {
	ops := mixedOps(42, 4000)
	first := runEngine(t, freshDevice(t), 64, ops)
	second := runEngine(t, freshDevice(t), 64, ops)
	for i := range ops {
		if first[i] != second[i] {
			t.Fatalf("op %d: run 1 latency %v, run 2 latency %v", i, first[i], second[i])
		}
	}
}

// fakeDev is a fixed-service-time device that asserts the engine's side of
// the contract: issue times must be non-decreasing.
type fakeDev struct {
	service sim.Duration
	lastAt  sim.Time
	stats   *device.Stats
}

func newFakeDev(service sim.Duration) *fakeDev {
	return &fakeDev{service: service, stats: device.NewStats()}
}

func (f *fakeDev) occupy(at sim.Time) (sim.Time, error) {
	if at < f.lastAt {
		return 0, fmt.Errorf("fake device: issue time went backwards (%v after %v)", at, f.lastAt)
	}
	f.lastAt = at
	return at.Add(f.service), nil
}

func (f *fakeDev) Put(at sim.Time, key, value []byte) (sim.Time, error) { return f.occupy(at) }
func (f *fakeDev) Delete(at sim.Time, key []byte) (sim.Time, error)     { return f.occupy(at) }
func (f *fakeDev) Get(at sim.Time, key []byte) ([]byte, sim.Time, error) {
	done, err := f.occupy(at)
	return nil, done, err
}
func (f *fakeDev) Scan(at sim.Time, start []byte, n int) ([]kv.Pair, sim.Time, error) {
	done, err := f.occupy(at)
	return nil, done, err
}
func (f *fakeDev) Sync(at sim.Time) (sim.Time, error) { return f.occupy(at) }
func (f *fakeDev) Stats() *device.Stats               { return f.stats }
func (f *fakeDev) Metadata() []device.MetaStructure   { return nil }

// Open-loop arrivals beyond the queue depth wait for a slot, and the wait
// is accounted as queue time, not service time.
func TestOpenLoopQueueWait(t *testing.T) {
	const service = 100 * sim.Nanosecond
	eng, err := host.New(newFakeDev(service), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three simultaneous arrivals on two slots: the third queues.
	for i, want := range []sim.Duration{0, 0, 100} {
		c, err := eng.PutAt(0, []byte("k"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if c.QueueWait() != want {
			t.Fatalf("arrival %d: queue wait %v, want %dns", i, c.QueueWait(), int64(want))
		}
		if c.Service() != service {
			t.Fatalf("arrival %d: service %v", i, c.Service())
		}
	}
}

// A late (out-of-order) arrival must not issue before an earlier one: the
// engine clamps it to the issue watermark, keeping the device contract.
func TestOpenLoopEnforcesNonDecreasingIssue(t *testing.T) {
	eng, err := host.New(newFakeDev(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PutAt(500, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	c, err := eng.PutAt(300, []byte("b"), nil) // arrives "in the past"
	if err != nil {
		t.Fatal(err)
	}
	if c.Issued != 500 {
		t.Fatalf("late arrival issued at %v; want clamped to 500ns", c.Issued)
	}
	if c.QueueWait() != 200 {
		t.Fatalf("late arrival queue wait %v; want 200ns", c.QueueWait())
	}
}

// Barrier aligns every slot and Sync drains the queue through the barrier.
func TestBarrierAndSync(t *testing.T) {
	eng, err := host.New(newFakeDev(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := eng.Put([]byte("k"), nil); err != nil {
			t.Fatal(err)
		}
	}
	at := eng.Barrier()
	if at != eng.Now() {
		t.Fatalf("barrier returned %v, Now() = %v", at, eng.Now())
	}
	c, err := eng.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if c.Issued != at || eng.Now() != c.Done {
		t.Fatalf("sync issued %v done %v; barrier was %v, Now() %v", c.Issued, c.Done, at, eng.Now())
	}
}

// Two engines over one device share its clock: the clock is the latest
// completion of either, a new engine starts at it, and the engine left
// behind, once caught up, issues its next closed-loop request at that
// instant.
func TestEnginesShareDeviceClock(t *testing.T) {
	dev := newFakeDev(100)
	clock := new(host.Clock)
	deep, err := host.NewOn(dev, 4, clock)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := host.NewOn(dev, 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals 150ns apart never queue, so each issues at its arrival and
	// the device sees non-decreasing times across both engines.
	for i := 0; i < 12; i++ {
		eng := deep
		if i%3 == 0 {
			eng = shallow
		}
		if _, err := eng.GetAt(sim.Time(150*i), []byte("k")); err != nil {
			t.Fatal(err)
		}
		if want := max(deep.Now(), shallow.Now()); clock.Now() != want {
			t.Fatalf("after request %d: clock %v, want the later engine's %v", i, clock.Now(), want)
		}
	}
	if shallow.Now() >= clock.Now() {
		t.Fatalf("shallow engine at %v is not behind the clock %v", shallow.Now(), clock.Now())
	}
	if late, err := host.NewOn(dev, 2, clock); err != nil || late.Now() != clock.Now() {
		t.Fatalf("new engine starts at %v (%v), want the clock's %v", late.Now(), err, clock.Now())
	}
	at := clock.Now()
	host.CatchUp(shallow)
	c, err := shallow.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Arrival != at || c.Issued != at {
		t.Fatalf("caught-up request arrived %v, issued %v; want both at the clock's %v", c.Arrival, c.Issued, at)
	}
	if clock.Now() != c.Done {
		t.Fatalf("clock %v after the request; want its completion %v", clock.Now(), c.Done)
	}
}

// Advancing the shared clock costs submit no allocation.
func TestSubmitDoesNotAllocate(t *testing.T) {
	eng, err := host.NewOn(newFakeDev(100), 64, new(host.Clock))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	if n := testing.AllocsPerRun(1000, func() { eng.Get(key) }); n != 0 {
		t.Fatalf("submit allocates %v times per request; want 0", n)
	}
}
