// Package anykey is a simulator of the AnyKey key-value SSD (Park et al.,
// ASPLOS 2025) and of the PinK baseline it improves upon. It reproduces the
// full device stack in pure Go: a virtual-time NAND flash array with the
// paper's TLC latencies, the PinK LSM-tree FTL (meta segments + pinned level
// lists), and the AnyKey FTL (data segment groups, DRAM-resident level
// lists and hash lists, a value log, and the AnyKey+ compaction policy).
//
// Open a simulated device, issue Put/Get/Delete/Scan, and read back both the
// results and the device's behaviour: simulated latencies, flash-operation
// counts by cause, metadata sizes and placement, garbage-collection and
// compaction activity.
//
//	dev, err := anykey.Open(anykey.Options{Design: anykey.DesignAnyKeyPlus})
//	...
//	lat, err := dev.Put([]byte("user:42"), profile)
//	val, lat, err := dev.Get([]byte("user:42"))
//
// Time is simulated: a full benchmark that would take hours on hardware
// completes in seconds, with latency arithmetic driven by the published
// flash timings rather than the host's wall clock.
package anykey

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"anykey/internal/cache"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/fault"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/pink"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/txn"
)

// Re-exported simulation and data types.
type (
	// Time is an instant on the simulated clock (nanoseconds from epoch).
	Time = sim.Time
	// Duration is a span of simulated time.
	Duration = sim.Duration
	// Pair is one key-value pair returned by Scan.
	Pair = kv.Pair
	// Stats is the live statistics view of a device.
	Stats = device.Stats
	// MetaStructure is one row of a device's metadata-size report.
	MetaStructure = device.MetaStructure
	// FlashCounters is the per-cause flash operation accounting.
	FlashCounters = nand.Counters
	// Engine is a host submission/completion engine driving a device at a
	// configurable queue depth; see Device.NewEngine.
	Engine = host.Engine
	// Completion is the outcome of one engine request: arrival, issue and
	// completion instants plus any returned data.
	Completion = host.Completion
	// FaultPlan declares the NAND faults to inject: transient read errors,
	// program/erase failures that grow bad blocks, and a one-shot power cut.
	// The zero value injects nothing; see Options.Faults.
	FaultPlan = fault.Plan
	// FaultCounters is the per-cause injected-fault accounting, from
	// Stats().Faults.
	FaultCounters = stats.FaultCounters
	// RecoveryInfo describes what the last PowerCycle's recovery found, from
	// Stats().Recovery.
	RecoveryInfo = stats.RecoveryInfo
	// Tracer collects virtual-time events when tracing is enabled; see
	// Options.Trace and Device.StartTrace. It exports Chrome trace_event
	// JSON (WriteChromeTrace), CSV (WriteCSV) and blame reports (Blame).
	Tracer = trace.Tracer
	// BlameOptions selects which ops a blame report decomposes.
	BlameOptions = trace.BlameOptions
	// BlameReport attributes above-percentile op time to named causes.
	BlameReport = trace.BlameReport
	// MemoryMode selects how the flash array retains programmed pages; see
	// Options.Memory.
	MemoryMode = nand.MemoryMode
	// StoreFootprint is the flash payload store's memory accounting, from
	// Device.Footprint.
	StoreFootprint = nand.StoreFootprint
	// CacheOptions configures the optional host-side DRAM cache; see
	// Options.Cache.
	CacheOptions = cache.Config
	// CacheStats counts the host cache's traffic, from Device.CacheStats.
	CacheStats = cache.Stats
)

// Payload store representations for Options.Memory.
const (
	// MemoryAuto (the default) picks MemoryRaw below 1 GiB of capacity and
	// MemoryFlyweight at or above it.
	MemoryAuto = nand.MemoryAuto
	// MemoryRaw retains every programmed page as its full byte image.
	MemoryRaw = nand.MemoryRaw
	// MemoryFlyweight stores pages compactly, regenerating workload bytes on
	// demand; reads are byte-identical to MemoryRaw, at a small CPU cost.
	MemoryFlyweight = nand.MemoryFlyweight
)

// Errors returned by device operations.
var (
	ErrNotFound   = kv.ErrNotFound
	ErrDeviceFull = kv.ErrDeviceFull
	ErrEmptyKey   = kv.ErrEmptyKey

	// ErrClosed is returned by operations on a device after Close.
	ErrClosed = errors.New("anykey: device closed")

	// ErrInvalidOptions tags Open failures caused by out-of-range Options;
	// test with errors.Is.
	ErrInvalidOptions = errors.New("anykey: invalid options")

	// ErrPowerCut is returned when a FaultPlan's power cut fires mid-operation
	// and by every operation thereafter, until PowerCycle remounts the device
	// from flash. Test with errors.Is.
	ErrPowerCut = errors.New("anykey: power cut")

	// ErrUnsupported tags requests for a modelled-elsewhere capability — for
	// example PowerCycle on a PinK device, whose recovery the simulator does
	// not model. Test with errors.Is.
	ErrUnsupported = errors.New("anykey: unsupported operation")

	// ErrTxnConflict reports an OCC validation failure: a key read by the
	// transaction changed before commit. Cluster.Txn/Incr/Append retry these
	// under TxnOptions' bounded-retry policy; a CompareAndSwap whose expected
	// value no longer matches reports it directly. Test with errors.Is.
	ErrTxnConflict = txn.ErrConflict

	// ErrTxnAborted reports a transaction given up for good — the retry
	// budget was exhausted (the error also matches ErrTxnConflict) or a 2PC
	// phase failed before the commit record was durable. Test with errors.Is.
	ErrTxnAborted = txn.ErrAborted

	// ErrTxnInDoubt reports an atomic batch whose commit point is undecided:
	// the commit record was written but syncing it failed, so it may or may
	// not be durable. The batch is neither committed nor aborted until
	// RecoverTxns resolves it — forward if the record survived, back
	// otherwise. Deliberately does not match ErrTxnAborted. Test with
	// errors.Is.
	ErrTxnInDoubt = txn.ErrInDoubt

	// ErrAtomicUnsupported rejects atomic cross-shard batches on a replicated
	// fleet whose configuration cannot make the commit record decisive: with
	// Factor > 1, read-one reads plus WriteQuorum < Factor would let a lagging
	// replica serve a pre-commit view of a key another replica has applied.
	// Require WriteQuorum == Factor (or ReadRepair) for atomic batches. Test
	// with errors.Is.
	ErrAtomicUnsupported = errors.New("anykey: atomic batches unsupported by this replication configuration")
)

// Design selects which KV-SSD firmware the device runs.
type Design int

// The four designs evaluated in the paper.
const (
	// DesignAnyKeyPlus is AnyKey with the modified log-triggered compaction
	// (§4.6) — the paper's best performer on all workload types.
	DesignAnyKeyPlus Design = iota
	// DesignAnyKey is the base contribution (§4.1–4.5).
	DesignAnyKey
	// DesignAnyKeyMinus is AnyKey without the value log (§6.7 ablation).
	DesignAnyKeyMinus
	// DesignPinK is the state-of-the-art baseline (Fig. 4).
	DesignPinK
)

var designNames = map[Design]string{
	DesignAnyKeyPlus:  "AnyKey+",
	DesignAnyKey:      "AnyKey",
	DesignAnyKeyMinus: "AnyKey-",
	DesignPinK:        "PinK",
}

// String returns the paper's name for the design.
func (d Design) String() string {
	if n, ok := designNames[d]; ok {
		return n
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// MarshalText returns the design's command-line spelling: its name in lower
// case ("anykey+").
func (d Design) MarshalText() ([]byte, error) {
	n, ok := designNames[d]
	if !ok {
		return nil, fmt.Errorf("anykey: no design %d", int(d))
	}
	return []byte(strings.ToLower(n)), nil
}

// UnmarshalText parses a design name in any case, so -design flags can use
// flag.TextVar.
func (d *Design) UnmarshalText(text []byte) error {
	for des, n := range designNames {
		if strings.EqualFold(n, string(text)) {
			*d = des
			return nil
		}
	}
	return fmt.Errorf("unknown design %q (pink | anykey | anykey+ | anykey-)", text)
}

// Options configures a simulated device. The zero value is a valid
// 128 MiB AnyKey+ device with the paper's proportions (see DESIGN.md §2 for
// the scaling argument).
type Options struct {
	Design Design

	// CapacityMB is the raw flash capacity in MiB (default 128). The
	// geometry keeps the paper's 8 channels × 8 chips and 64-page blocks.
	CapacityMB int

	// DRAMBytes is the device DRAM for metadata; default capacity/1000,
	// the paper's 0.1 % ratio.
	DRAMBytes int64

	// PageSize is the flash page size in bytes (default 8192; Fig. 16
	// sweeps 4–16 KiB).
	PageSize int

	// GroupPages is AnyKey's data segment group size in pages (default 32).
	GroupPages int

	// LogFraction is the value log's share of the device (default 0.50,
	// the paper's "half of the remaining capacity"; Fig. 19 sweeps
	// undersized logs of 0.05–0.15). Ignored by PinK and AnyKey−.
	LogFraction float64

	// MemtableBytes is the write-buffer flush threshold (default 32 pages).
	MemtableBytes int64

	// GrowthFactor is the LSM fanout (default 4).
	GrowthFactor int

	// Channels and ChipsPerChannel override the flash parallelism (8×8).
	Channels, ChipsPerChannel int

	// Seed fixes all internal randomness (default 1).
	Seed int64

	// NoHashLists disables AnyKey's per-group hash lists (ablation).
	NoHashLists bool

	// Memory selects the flash array's payload representation. The default
	// MemoryAuto keeps the historical raw images below 1 GiB of capacity and
	// switches to the flyweight store at or above, letting full-scale
	// geometries (64 GB and up) simulate in bounded host memory. Reads are
	// byte-identical across modes; simulation results do not change.
	Memory MemoryMode

	// Cache, when non-nil, puts a host-side write-through DRAM cache with
	// Flashield-style admission control in front of the device. Hits are
	// served at DRAM latency (2 µs) with no flash traffic. Being host DRAM,
	// the cache's contents do not survive PowerCycle; every write is on the
	// device before it is acknowledged, so nothing acknowledged is lost.
	Cache *CacheOptions

	// Faults, when non-nil, injects NAND failure modes per the plan: seeded,
	// deterministic read errors, program/erase failures and an optional
	// one-shot power cut (surfacing as ErrPowerCut). Injected-fault counts
	// appear in Stats().Faults. The injector is attached to the flash array
	// for the device's lifetime, so grown-bad blocks and the op counter
	// survive PowerCycle.
	Faults *FaultPlan

	// Trace, when non-nil, enables event tracing from the first operation:
	// host op lifecycles, flash page operations tagged with their cause,
	// controller-CPU occupancy and background activity spans. Read the
	// collected trace with Device.Trace(). Tracing observes the schedule
	// without changing it, so latencies are identical with it on or off.
	Trace *TraceOptions
}

// TraceOptions sizes the tracer attached by Options.Trace or
// Device.StartTrace. The zero value uses the default ring capacities.
type TraceOptions struct {
	// EventBuffer is the event-ring capacity (default 262144). When full,
	// the oldest events are overwritten.
	EventBuffer int
	// OpBuffer is the op-record ring capacity (default 65536).
	OpBuffer int
}

// DefaultOptions returns the fully normalized default configuration: the
// paper-proportioned 128 MiB AnyKey+ device, with every derived field (DRAM
// budget, memtable threshold, group size, …) filled in. It is exactly what
// the zero Options resolves to, made inspectable.
func DefaultOptions() Options {
	var o Options
	// The zero value validates by construction; Validate only fills fields.
	if err := o.Validate(); err != nil {
		panic(err) // unreachable: the zero Options is documented valid
	}
	return o
}

// Validate checks every field and normalizes zero values to their defaults
// in place, so "unset" resolves to a concrete configuration in exactly one
// place — Open, OpenCluster and any caller wanting to inspect the effective
// configuration all share it. Out-of-range values are reported wrapped in
// ErrInvalidOptions (test with errors.Is); zero values are never rejected.
func (o *Options) Validate() error {
	if err := o.check(); err != nil {
		return err
	}
	if o.CapacityMB == 0 {
		o.CapacityMB = 128
	}
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.Channels == 0 {
		o.Channels = 8
	}
	if o.ChipsPerChannel == 0 {
		o.ChipsPerChannel = 8
	}
	geo, err := o.geometry()
	if err != nil {
		return err
	}
	if o.GroupPages > geo.PagesPerBlock {
		return fmt.Errorf("%w: GroupPages %d does not fit a %d-page erase block",
			ErrInvalidOptions, o.GroupPages, geo.PagesPerBlock)
	}
	// The derived defaults are the firmware's own (core.Config.Defaults over
	// the shared lsm.Config.Defaults), so a normalized Options builds a
	// bit-identical device to the zero Options.
	cfg := o.coreConfig(geo, nil)
	cfg.Defaults()
	o.DRAMBytes, o.MemtableBytes, o.GrowthFactor = cfg.DRAMBytes, cfg.MemtableBytes, cfg.GrowthFactor
	o.GroupPages, o.LogFraction, o.Seed = cfg.GroupPages, cfg.LogFraction, cfg.Seed
	return nil
}

// check rejects out-of-range option values before any construction, so
// misconfiguration surfaces as a descriptive Open error instead of silent
// misbehaviour downstream. Zero values are never rejected — they mean "use
// the default".
func (o Options) check() error {
	if o.CapacityMB < 0 {
		return fmt.Errorf("%w: CapacityMB %d is negative", ErrInvalidOptions, o.CapacityMB)
	}
	if o.DRAMBytes < 0 {
		return fmt.Errorf("%w: DRAMBytes %d is negative", ErrInvalidOptions, o.DRAMBytes)
	}
	if o.PageSize < 0 {
		return fmt.Errorf("%w: PageSize %d is negative", ErrInvalidOptions, o.PageSize)
	}
	if o.GroupPages < 0 {
		return fmt.Errorf("%w: GroupPages %d is negative", ErrInvalidOptions, o.GroupPages)
	}
	if o.LogFraction != 0 && (o.LogFraction <= 0 || o.LogFraction >= 1) {
		return fmt.Errorf("%w: LogFraction %v outside (0,1)", ErrInvalidOptions, o.LogFraction)
	}
	if o.MemtableBytes < 0 {
		return fmt.Errorf("%w: MemtableBytes %d is negative", ErrInvalidOptions, o.MemtableBytes)
	}
	if o.GrowthFactor < 0 {
		return fmt.Errorf("%w: GrowthFactor %d is negative", ErrInvalidOptions, o.GrowthFactor)
	}
	if o.Channels < 0 || o.ChipsPerChannel < 0 {
		return fmt.Errorf("%w: Channels %d × ChipsPerChannel %d is negative", ErrInvalidOptions, o.Channels, o.ChipsPerChannel)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	if o.Trace != nil && (o.Trace.EventBuffer < 0 || o.Trace.OpBuffer < 0) {
		return fmt.Errorf("%w: negative trace buffer size %+v", ErrInvalidOptions, *o.Trace)
	}
	if o.Memory < MemoryAuto || o.Memory > MemoryFlyweight {
		return fmt.Errorf("%w: unknown memory mode %d", ErrInvalidOptions, int(o.Memory))
	}
	if c := o.Cache; c != nil {
		if c.CapacityBytes < 0 || c.AdmitAfter < 0 {
			return fmt.Errorf("%w: negative cache parameter %+v", ErrInvalidOptions, *c)
		}
	}
	return nil
}

// geometry derives the NAND geometry from normalized options (Validate has
// filled CapacityMB, PageSize, Channels and ChipsPerChannel).
func (o Options) geometry() (nand.Geometry, error) {
	capMB, pageSize, channels, chips := o.CapacityMB, o.PageSize, o.Channels, o.ChipsPerChannel
	// Keep the erase-block byte size constant (512 KiB) across page sizes,
	// as flash generations do; otherwise large-page sweeps starve the
	// device of blocks.
	pagesPerBlock := (512 << 10) / pageSize
	if pagesPerBlock < 8 {
		pagesPerBlock = 8
	}
	blockBytes := int64(pageSize) * int64(pagesPerBlock)
	totalBlocks := int64(capMB) << 20 / blockBytes
	perChip := totalBlocks / int64(channels*chips)
	if perChip < 1 {
		return nand.Geometry{}, fmt.Errorf("%w: capacity %d MB too small for %d×%d chips with %d B pages",
			ErrInvalidOptions, capMB, channels, chips, pageSize)
	}
	return nand.Geometry{
		Channels:        channels,
		ChipsPerChannel: chips,
		BlocksPerChip:   int(perChip),
		PagesPerBlock:   pagesPerBlock,
		PageSize:        pageSize,
	}, nil
}

// coreConfig is the one translation of Options into the AnyKey firmware's
// configuration, shared by Validate (defaults), Open and PowerCycle.
func (o *Options) coreConfig(geo nand.Geometry, tr *trace.Tracer) core.Config {
	return core.Config{
		Geometry:      geo,
		DRAMBytes:     o.DRAMBytes,
		MemtableBytes: o.MemtableBytes,
		GrowthFactor:  o.GrowthFactor,
		GroupPages:    o.GroupPages,
		LogFraction:   o.LogFraction,
		Plus:          o.Design == DesignAnyKeyPlus,
		NoValueLog:    o.Design == DesignAnyKeyMinus,
		NoHashLists:   o.NoHashLists,
		Memory:        o.Memory,
		Seed:          o.Seed,
		Tracer:        tr,
	}
}

// Device is an open simulated KV-SSD. Its Put/Get/Delete/Scan methods run
// a queue-depth-1 closed loop — each operation is issued when the previous
// one completed — backed by an internal host engine. Drivers that need
// concurrency build their own engine with NewEngine.
//
// The facade operations and StatsSnapshot share one mutex, so a concurrent
// observer (a metrics scraper, a monitoring goroutine) can snapshot the
// device's statistics while another goroutine operates on it. Stats()
// still returns the live, lock-free view for single-goroutine callers.
type Device struct {
	mu     sync.Mutex // serializes facade operations against StatsSnapshot
	impl   device.KVSSD
	eng    *host.Engine   // depth-1 engine backing the facade operations
	issued []*host.Engine // every engine NewEngine handed out
	opts   Options
	inj    *fault.Injector // nil without a fault plan
	tr     *trace.Tracer   // nil unless tracing is enabled
	closed bool
	dead   bool // a power cut fired; only PowerCycle revives the device
}

// openImpl validates-and-normalizes opts and builds the firmware it
// selects. It is the one construction path shared by Open and OpenCluster.
func openImpl(opts *Options) (device.KVSSD, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	geo, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	var impl device.KVSSD
	switch opts.Design {
	case DesignPinK:
		impl, err = pink.New(pink.Config{
			Geometry:      geo,
			DRAMBytes:     opts.DRAMBytes,
			MemtableBytes: opts.MemtableBytes,
			GrowthFactor:  opts.GrowthFactor,
			Memory:        opts.Memory,
			Seed:          opts.Seed,
		})
	case DesignAnyKey, DesignAnyKeyPlus, DesignAnyKeyMinus:
		impl, err = core.New(opts.coreConfig(geo, nil))
	default:
		return nil, fmt.Errorf("%w: unknown design %v", ErrInvalidOptions, opts.Design)
	}
	if err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		impl = cache.Wrap(impl, *opts.Cache)
	}
	return impl, nil
}

// Open builds a device running the selected design.
func Open(opts Options) (*Device, error) {
	impl, err := openImpl(&opts)
	if err != nil {
		return nil, err
	}
	eng, err := host.New(impl, 1)
	if err != nil {
		return nil, err
	}
	d := &Device{impl: impl, eng: eng, opts: opts}
	if opts.Faults != nil && opts.Faults.Enabled() {
		d.inj = fault.New(*opts.Faults)
		d.array().SetInjector(d.inj)
		impl.Stats().Faults = d.inj.Counters
	}
	if opts.Trace != nil {
		d.attachTracer(trace.New(trace.Config{Events: opts.Trace.EventBuffer, Ops: opts.Trace.OpBuffer}))
	}
	return d, nil
}

// attachTracer wires one tracer through every emitting layer: the host
// engine (op lifecycles), the firmware (CPU and background spans) and the
// flash array (page operations).
func (d *Device) attachTracer(tr *trace.Tracer) {
	d.tr = tr
	d.eng.SetTracer(tr)
	attachTracerTo(d.impl, tr)
}

// firmware is what the facade reaches for beneath the KV interface; both
// designs get it from the shared front-end (internal/device/lsm).
type firmware interface {
	Array() *nand.Array
	SetTracer(*trace.Tracer)
}

// firmwareOf returns the firmware beneath any host-side wrappers.
func firmwareOf(impl device.KVSSD) firmware { return device.Unwrap(impl).(firmware) }

// attachTracerTo wires a tracer through a bare firmware instance and its
// flash array — the device- and cluster-shared half of tracer attachment
// (engines are wired separately, as a cluster runs one per shard).
func attachTracerTo(impl device.KVSSD, tr *trace.Tracer) {
	fw := firmwareOf(impl)
	fw.Array().SetTracer(tr)
	fw.SetTracer(tr)
}

// Trace returns the device's tracer, or nil when tracing is off. A nil
// *Tracer is safe to use: every method on it is a no-op.
func (d *Device) Trace() *Tracer { return d.tr }

// StartTrace enables tracing mid-life with fresh ring buffers and returns
// the new tracer. If tracing is already on, the existing tracer is kept
// (and returned) rather than discarding its events.
func (d *Device) StartTrace(opts TraceOptions) *Tracer {
	if d.tr == nil {
		d.attachTracer(trace.New(trace.Config{Events: opts.EventBuffer, Ops: opts.OpBuffer}))
	}
	return d.tr
}

// StopTrace detaches and returns the tracer (nil if tracing was off). The
// returned tracer keeps its collected events for export.
func (d *Device) StopTrace() *Tracer {
	tr := d.tr
	if tr != nil {
		d.attachTracer(nil)
	}
	return tr
}

// array returns the flash array beneath whichever firmware is mounted.
func (d *Device) array() *nand.Array { return firmwareOf(d.impl).Array() }

// Design returns the firmware the device runs.
func (d *Device) Design() Design { return d.opts.Design }

// Now returns the device's virtual clock: the latest completion of its own
// operations and of every engine NewEngine handed out.
func (d *Device) Now() Time {
	now := d.eng.Now()
	for _, e := range d.issued {
		now = max(now, e.Now())
	}
	return now
}

// NewEngine returns a host submission/completion engine driving this
// device at the given queue depth (≥ 1). The engine owns its own slot
// clocks, starting at the device's current time. The device's own
// Put/Get/Delete/Scan/Sync resume from the latest clock of its engines, so
// they may follow an engine's requests, but the two must not interleave:
// each would advance time behind the other's back.
func (d *Device) NewEngine(depth int) (*Engine, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if depth < 1 {
		return nil, fmt.Errorf("%w: engine queue depth %d; need at least 1", ErrInvalidOptions, depth)
	}
	eng, err := host.NewAt(d.impl, depth, d.Now())
	if err != nil {
		return nil, err
	}
	eng.SetTracer(d.tr)
	d.issued = append(d.issued, eng)
	return eng, nil
}

// mount makes a fresh depth-1 engine over impl, its clocks starting at at,
// the one backing the facade operations.
func (d *Device) mount(impl device.KVSSD, at Time) error {
	eng, err := host.NewAt(impl, 1, at)
	if err != nil {
		return err
	}
	// The tracer spans engines: the new one keeps appending op records to
	// the same rings.
	eng.SetTracer(d.tr)
	d.eng = eng
	return nil
}

// Close marks the device closed and eagerly releases the flash payload
// store — the dominant memory of a simulated device — so fleets that cycle
// shards do not accumulate dead flash images until the garbage collector
// notices. Further operations return ErrClosed; statistics stay readable.
// It is idempotent and never fails.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		device.ReleaseMemory(d.impl)
	}
	return nil
}

// gate rejects operations on a closed or powered-off device. It also
// resumes the facade's engine from the device's clock when an engine
// NewEngine handed out has run past it: issued at its own stale clock, the
// operation would queue behind all of that engine's work.
func (d *Device) gate() error {
	if d.closed {
		return ErrClosed
	}
	if d.dead {
		return ErrPowerCut
	}
	if now := d.Now(); now > d.eng.Now() {
		return d.mount(d.impl, now)
	}
	return nil
}

// catchCut translates an in-flight power-cut panic (raised by the fault
// injector between two flash commands) into ErrPowerCut and marks the device
// dead: its volatile state is gone, and only PowerCycle — which rebuilds the
// firmware from the flash image the cut left behind — revives it.
func (d *Device) catchCut(err *error) {
	if r := recover(); r != nil {
		pc, ok := fault.AsPowerCut(r)
		if !ok {
			panic(r)
		}
		d.dead = true
		d.tr.Instant(trace.BGTrack(trace.CauseRecovery), trace.EvPowerCut,
			trace.CauseRecovery, d.eng.Now(), pc.Op)
		*err = fmt.Errorf("%w (flash op %d)", ErrPowerCut, pc.Op)
	}
}

// Put stores a pair and returns its simulated latency.
func (d *Device) Put(key, value []byte) (lat Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return 0, err
	}
	defer d.catchCut(&err)
	c, err := d.eng.Put(key, value)
	return c.Latency(), err
}

// Get returns the newest value for key and the simulated latency. The
// returned slice is owned by the device and valid until the next operation.
func (d *Device) Get(key []byte) (val []byte, lat Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return nil, 0, err
	}
	defer d.catchCut(&err)
	c, err := d.eng.Get(key)
	return c.Value, c.Latency(), err
}

// Delete removes key and returns the simulated latency.
func (d *Device) Delete(key []byte) (lat Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return 0, err
	}
	defer d.catchCut(&err)
	c, err := d.eng.Delete(key)
	return c.Latency(), err
}

// Scan returns up to n pairs with key ≥ start in key order, and the
// simulated latency of the range query.
func (d *Device) Scan(start []byte, n int) (pairs []Pair, lat Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return nil, 0, err
	}
	defer d.catchCut(&err)
	c, err := d.eng.Scan(start, n)
	return c.Pairs, c.Latency(), err
}

// Sync makes every acknowledged write durable, like an NVMe FLUSH.
func (d *Device) Sync() (lat Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.gate(); err != nil {
		return 0, err
	}
	defer d.catchCut(&err)
	c, err := d.eng.Sync()
	return c.Latency(), err
}

// PowerCycle simulates a power loss and remount: the device's volatile state
// is discarded and rebuilt from flash. AnyKey's entire metadata is derivable
// from the persistent group headers and log pages (see internal/core's
// recovery); writes a preceding Sync covered but that were still in the
// write buffer replay from its journal, and writes not covered by a Sync are
// lost. Recovery tolerates the torn state an injected power cut leaves
// behind — skipped torn tail pages, incomplete level epochs, orphaned log
// values and half-written journal batches; Stats().Recovery reports what
// the remount found. PinK power-cycling is not modelled.
func (d *Device) PowerCycle() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	c, ok := device.Unwrap(d.impl).(*core.Device)
	if !ok {
		return fmt.Errorf("%w: power-cycle recovery is only modelled for AnyKey designs", ErrUnsupported)
	}
	geo, err := d.opts.geometry()
	if err != nil {
		return err
	}
	reopened, err := core.Reopen(d.opts.coreConfig(geo, d.tr), c.Array())
	if err != nil {
		return err
	}
	// A host cache is DRAM: the power cut emptied it. The remount starts
	// with a cold one.
	var impl device.KVSSD = reopened
	if d.opts.Cache != nil {
		impl = cache.Wrap(reopened, *d.opts.Cache)
	}
	// The remounted firmware starts fresh, but time keeps flowing: the new
	// engine's clocks resume where the old device's left off. The tracer,
	// like the injector, spans the cycle.
	if err := d.mount(impl, d.Now()); err != nil {
		return err
	}
	d.impl = impl
	d.dead = false
	// The injector lives on the flash array, which survived the cycle; only
	// the fresh Stats object needs its counter view re-attached.
	if d.inj != nil {
		reopened.Stats().Faults = d.inj.Counters
	}
	return nil
}

// Stats returns the device's live statistics. The pointer updates as the
// simulation advances and is NOT safe to read while another goroutine
// operates on the device — concurrent observers use StatsSnapshot.
func (d *Device) Stats() *Stats { return d.impl.Stats() }

// StatsSnapshot is a point-in-time copy of a device's statistics with every
// lazily-computed field resolved, safe to read while other goroutines
// operate on the device (the copy is taken under the same lock the
// operations hold).
type StatsSnapshot = device.Snapshot

// StatsSnapshot copies the device's statistics under the operation lock.
func (d *Device) StatsSnapshot() StatsSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.impl.Stats().Snapshot()
}

// Metadata reports every metadata structure's size and placement.
func (d *Device) Metadata() []MetaStructure { return d.impl.Metadata() }

// Flash returns the flash operation counters (reads/writes by cause,
// erases).
func (d *Device) Flash() FlashCounters { return d.impl.Stats().Flash() }

// Footprint returns the flash payload store's memory accounting: what a
// raw store would retain versus what the configured store actually does.
func (d *Device) Footprint() StoreFootprint { return d.array().Footprint() }

// CacheStats returns the host cache's counters; ok is false when the device
// was opened without Options.Cache.
func (d *Device) CacheStats() (st CacheStats, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, isCache := d.impl.(*cache.Cache); isCache {
		return c.CacheStats(), true
	}
	return CacheStats{}, false
}
