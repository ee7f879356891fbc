// Package harness drives the simulated KV-SSDs through the paper's
// evaluation methodology (§5): a warm-up phase that loads the full key
// population in shuffled order, then an execution phase issuing requests
// at queue depth 64 (the paper's setting) through the host submission
// engine until the issued bytes reach a multiple of the device capacity,
// recording latencies, IOPS and flash-operation deltas. A separate
// fill-to-full mode measures storage utilization (Fig. 14).
//
// Experiments fan out over many independent (design, workload, knob)
// cells, each owning its own device; RunExperiment runs them on a worker
// pool when ExpOptions.Parallel asks for one (see parallel.go).
package harness

import (
	"bytes"
	"errors"
	"fmt"

	"anykey"
	"anykey/internal/device"
	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// RetryPolicy is the open-loop client's retry schedule: a timed-out
// attempt is re-submitted after a capped exponential backoff — the k-th
// retry waits min(Backoff << k, MaxBackoff) past the expired deadline —
// until MaxRetries retries have been spent, then the operation is dropped.
// All fields are scalars so configs stay comparable.
type RetryPolicy struct {
	MaxRetries int
	Backoff    anykey.Duration
	MaxBackoff anykey.Duration
}

// delay returns the backoff before retry number k (k = 1 is the first
// retry).
func (p RetryPolicy) delay(k int) anykey.Duration {
	if k < 1 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < k; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// BaseConfig holds the methodology knobs shared by single-device and
// cluster runs: the workload, population sizing, request mix, run length,
// and — when the workload carries an open-loop arrival process — the
// client-side timeout/retry/SLO knobs. It is embedded in RunConfig and
// ClusterRunConfig so the knobs are defined once, and holds only comparable
// values so the parallel runner can memoize on the enclosing configs.
type BaseConfig struct {
	Workload workload.Spec

	// FillFrac sizes the key population to this fraction of the raw
	// capacity (default 0.5 — leaves room for the value log,
	// over-provisioning and PinK's flash metadata).
	FillFrac float64

	// Theta and WriteRatio parameterise the request mix (defaults 0.99,
	// 0.2 per §5.1).
	Theta      float64
	WriteRatio float64

	// MaxOps, if set, caps the number of executed (closed-loop) or offered
	// (open-loop) operations, before the execFactor byte target is reached
	// (for quick runs).
	MaxOps int64

	// Verify checks every read's payload against the generator's expected
	// version (always on unless disabled; it costs only host time).
	NoVerify bool

	Seed int64

	// Open-loop client knobs, meaningful only when Workload.Arrival is an
	// open shape. Timeout is the client deadline per attempt (default
	// 10 ms); Retry schedules re-submissions after timeouts (default 3
	// retries, 500 µs base backoff capped at 4 ms); SLO is the end-to-end
	// latency bound a completion must meet to count as goodput (default
	// 2 ms); Horizon is how long fresh arrivals are offered in virtual
	// time (default 100 ms) — the run then drains retries and backlog.
	Timeout anykey.Duration
	Retry   RetryPolicy
	SLO     anykey.Duration
	Horizon anykey.Duration
}

// execFactor stops a closed-loop execution phase once issued request bytes
// reach execFactor × capacity (§5.5).
const execFactor = 2

// baseDefaults fills the shared defaults. scanRatio is the enclosing
// config's scan mix (cluster runs have none); it suppresses the write-ratio
// default exactly as before the configs were unified.
func (c *BaseConfig) baseDefaults(pageSize int, scanRatio float64) {
	if c.FillFrac == 0 {
		c.FillFrac = safeFillFrac(c.Workload, pageSize)
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.WriteRatio == 0 && scanRatio == 0 {
		c.WriteRatio = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workload.Arrival.Open() {
		if c.Timeout == 0 {
			c.Timeout = 10 * anykey.Duration(sim.Millisecond)
		}
		if c.Retry.MaxRetries == 0 {
			c.Retry.MaxRetries = 3
		}
		if c.Retry.Backoff == 0 {
			c.Retry.Backoff = anykey.Duration(500 * sim.Microsecond)
		}
		if c.Retry.MaxBackoff == 0 {
			c.Retry.MaxBackoff = 4 * anykey.Duration(sim.Millisecond)
		}
		if c.SLO == 0 {
			c.SLO = 2 * anykey.Duration(sim.Millisecond)
		}
		if c.Horizon == 0 {
			c.Horizon = 100 * anykey.Duration(sim.Millisecond)
		}
	}
}

// basePopulation sizes the key population against a raw capacity.
func (c *BaseConfig) basePopulation(capacityBytes int64) uint64 {
	n := uint64(float64(capacityBytes) * c.FillFrac / float64(c.Workload.PairSize()))
	if n < 64 {
		n = 64
	}
	return n
}

// RunConfig describes one measurement run: a device, the shared methodology
// knobs (BaseConfig), and the single-device-only mix and queueing knobs.
type RunConfig struct {
	Device anykey.Options
	BaseConfig

	// ScanRatio and ScanLen extend the request mix with scans (Fig. 18
	// only); the batch-oriented cluster methodology has no scan knob.
	ScanRatio float64
	ScanLen   int

	// QueueDepth is the number of closed-loop workers (default 64). Open-
	// loop runs use it as the device's submission-slot count.
	QueueDepth int
}

func (c *RunConfig) defaults() {
	c.baseDefaults(c.pageSize(), c.ScanRatio)
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
}

// capacityBytes returns the configured raw capacity.
func (c *RunConfig) capacityBytes() int64 {
	capMB := c.Device.CapacityMB
	if capMB == 0 {
		capMB = 128
	}
	return int64(capMB) << 20
}

func (c *RunConfig) pageSize() int {
	if c.Device.PageSize != 0 {
		return c.Device.PageSize
	}
	return 8192
}

// safeFillFrac sizes the key population so the *least* space-efficient
// system under test (PinK, whose meta segments live in flash at low v/k)
// can still hold it with compaction/GC headroom. Two taxes are modelled:
// page-atomic packing (a 4 KiB value occupies a whole 8 KiB page slot) and
// PinK's flash-resident per-pair metadata. The same population is then used
// for every system, keeping comparisons fair.
func safeFillFrac(spec workload.Spec, pageSize int) float64 {
	entity := spec.PairSize() + 10
	perPage := (pageSize - 6) / (entity + 2)
	if perPage < 1 {
		perPage = 1
	}
	padRatio := float64(pageSize) / float64(perPage) / float64(spec.PairSize())
	metaRatio := float64(spec.KeySize+12) / float64(spec.PairSize())
	// Data pages carry steady-state dead slots (a PinK page stays occupied
	// while any slot lives), modelled as a 2.2× bloat on the padded data
	// footprint; 12% of the device is kept as GC/compaction headroom.
	frac := 0.88 / (2.2*padRatio + metaRatio)
	if frac > 0.42 {
		frac = 0.42
	}
	return frac
}

// Population returns the number of distinct keys the run loads.
func (c *RunConfig) Population() uint64 {
	c.defaults()
	return c.basePopulation(c.capacityBytes())
}

// Result carries everything an experiment needs to print its table or
// figure series.
type Result struct {
	System   string
	Workload string

	Population uint64
	Ops        int64

	ReadLat  stats.Histogram
	WriteLat stats.Histogram
	ScanLat  stats.Histogram

	// QueueWaitLat and ServiceLat split every execution-phase latency into
	// host queueing vs device service, as recorded by the submission
	// engine. Closed-loop runs have zero queue wait by construction.
	QueueWaitLat stats.Histogram
	ServiceLat   stats.Histogram

	// IOPS is executed operations per simulated second.
	IOPS float64
	// SimSeconds is the simulated duration of the execution phase.
	SimSeconds float64

	// Exec is the flash counter delta over the execution phase; Total is
	// the whole run including warm-up (Fig. 13 uses Total writes).
	Exec  nand.Counters
	Total nand.Counters

	Metadata     []device.MetaStructure
	ReadAccesses *stats.IntHist

	// Counters is the device's activity tally at the end of the run.
	device.Counters

	// Faults is the injected-fault tally for the whole run (warm-up
	// included), present only when the device ran under a fault plan.
	Faults *stats.FaultCounters

	// Trace is the device's tracer when the run was traced
	// (RunConfig.Device.Trace != nil); it covers the execution phase only —
	// the tracer is reset at the warm-up barrier. Blame is its attribution
	// report at the default (P99) cut.
	Trace *anykey.Tracer
	Blame *anykey.BlameReport

	// Open carries the open-loop client's tally (timeouts, retries,
	// goodput, recovery), present only when the workload had an arrival
	// process.
	Open *OpenStats

	// Store is the flash payload store's memory accounting at the end of
	// the run, captured before the device closes. Under the flyweight store
	// (the default past the MemoryAuto threshold) ResidentBytes stays far
	// below LogicalBytes; raw mode keeps the two equal.
	Store nand.StoreFootprint
	// Cache holds the host cache's counters, present only when the run's
	// device was opened with Options.Cache.
	Cache *anykey.CacheStats

	Verified int64 // reads whose payload was checked
}

// Run executes warm-up + measurement and returns the result.
func Run(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	dev, err := anykey.Open(cfg.Device)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	eng, err := dev.NewEngine(cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(cfg.Workload, workload.Config{
		Population: cfg.Population(),
		Theta:      cfg.Theta,
		WriteRatio: cfg.WriteRatio,
		ScanRatio:  cfg.ScanRatio,
		ScanLen:    cfg.ScanLen,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := cfg.placeholder()
	res.Population = gen.Population()

	// Warm-up (§5.5): load every key once, shuffled. Every id appears
	// exactly once, so the generator's hot-id caches cannot help; two
	// reusable buffers (devices copy on Put) produce identical bytes
	// without a pair of allocations per id.
	var kbuf, vbuf []byte
	for i := uint64(0); i < gen.Population(); i++ {
		id := gen.LoadID(i)
		kbuf = workload.AppendKey(kbuf, cfg.Workload, id)
		vbuf = workload.AppendValue(vbuf, cfg.Workload, id, 0)
		if _, err := eng.Put(kbuf, vbuf); err != nil {
			return nil, fmt.Errorf("harness: warm-up put %d/%d: %w", i, gen.Population(), err)
		}
	}

	st := dev.Stats()
	warm := st.Flash()
	// Reset the per-read access histogram so Fig. 11b reflects execution
	// reads only, and the engine's breakdown so it excludes warm-up.
	*st.ReadAccesses = *stats.NewIntHist(8)
	eng.ResetBreakdown()

	// Phase barrier between warm-up and execution.
	execStart := eng.Barrier()
	// Discard warm-up trace data so traces and blame cover the measured
	// phase only (Reset is a no-op on an untraced device).
	dev.Trace().Reset()

	if cfg.Workload.Arrival.Open() {
		loop := openLoop{cfg: &cfg.BaseConfig, gen: gen,
			tgt:   &deviceTarget{eng: eng, tr: dev.Trace(), epoch: execStart},
			hists: openHists{read: &res.ReadLat, write: &res.WriteLat, scan: &res.ScanLat}}
		if res.Open, err = loop.run(); err != nil {
			return nil, err
		}
		// Ops counts device-executed operations: every attempt, retries
		// included, does real device work.
		res.Ops, res.Verified = res.Open.Attempts, loop.verified
	} else {
		targetBytes := int64(execFactor * float64(cfg.capacityBytes()))
		var issuedBytes int64
		for issuedBytes < targetBytes && (cfg.MaxOps == 0 || res.Ops < cfg.MaxOps) {
			op := gen.Next()
			switch op.Kind {
			case workload.OpPut:
				c, err := eng.Put(op.Key, op.Value)
				if err != nil {
					return nil, fmt.Errorf("harness: put: %w", err)
				}
				res.WriteLat.Record(c.Latency())
			case workload.OpGet:
				c, err := eng.Get(op.Key)
				if err != nil {
					return nil, fmt.Errorf("harness: get %x: %w", op.Key[:8], err)
				}
				res.ReadLat.Record(c.Latency())
				if !cfg.NoVerify {
					if !bytes.Equal(c.Value, gen.ExpectedValue(op.ID)) {
						return nil, fmt.Errorf("harness: read of id %d returned wrong payload", op.ID)
					}
					res.Verified++
				}
			case workload.OpScan:
				c, err := eng.Scan(op.Key, op.ScanLen)
				if err != nil {
					return nil, fmt.Errorf("harness: scan: %w", err)
				}
				res.ScanLat.Record(c.Latency())
				if !cfg.NoVerify && len(c.Pairs) == 0 {
					return nil, errors.New("harness: scan returned nothing on a loaded device")
				}
			}
			issuedBytes += op.Bytes()
			res.Ops++
		}
	}

	end := eng.Now()
	res.SimSeconds = end.Sub(execStart).Seconds()
	if res.SimSeconds > 0 {
		res.IOPS = float64(res.Ops) / res.SimSeconds
	}
	if res.Open != nil && res.SimSeconds > 0 {
		res.Open.Goodput = float64(res.Open.GoodOps) / res.SimSeconds
	}
	res.QueueWaitLat, res.ServiceLat = eng.Breakdown()
	total := st.Flash()
	res.Exec = total.Sub(warm)
	res.Total = total
	res.Metadata = dev.Metadata()
	res.ReadAccesses = st.ReadAccesses
	res.Counters = st.Counters
	res.Store = dev.Footprint()
	if cs, ok := dev.CacheStats(); ok {
		res.Cache = &cs
	}
	if st.Faults != nil {
		c := st.Faults()
		res.Faults = &c
	}
	if tr := dev.Trace(); tr != nil {
		res.Trace = tr
		res.Blame = tr.Blame(anykey.BlameOptions{})
	}
	return res, nil
}

// FillResult is the outcome of a fill-to-full run (Fig. 14).
type FillResult struct {
	System      string
	Workload    string
	Pairs       int64
	UserBytes   int64
	Capacity    int64
	Utilization float64
}

// FillToFull inserts unique pairs until the device reports ErrDeviceFull and
// returns the achieved storage utilization: unique user bytes over raw
// capacity. The fill order is deterministic by construction; opts.Seed
// seeds the device.
func FillToFull(opts anykey.Options, spec workload.Spec) (*FillResult, error) {
	dev, err := anykey.Open(opts)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	eng, err := dev.NewEngine(1)
	if err != nil {
		return nil, err
	}
	capacity := int64(opts.CapacityMB) << 20
	if capacity == 0 {
		capacity = 128 << 20
	}
	res := &FillResult{System: opts.Design.String(), Workload: spec.Name, Capacity: capacity}
	// The engine executes Put synchronously and the device copies both
	// slices, so one key and one value buffer serve the whole fill.
	var kbuf, vbuf []byte
	for i := uint64(0); ; i++ {
		kbuf = workload.AppendKey(kbuf, spec, i)
		vbuf = workload.AppendValue(vbuf, spec, i, 0)
		if _, err := eng.Put(kbuf, vbuf); err != nil {
			if errors.Is(err, kv.ErrDeviceFull) {
				break
			}
			return nil, err
		}
		res.Pairs++
		res.UserBytes += int64(spec.PairSize())
		if res.UserBytes > 4*capacity {
			return nil, errors.New("harness: device never filled; accounting bug")
		}
	}
	res.Utilization = float64(res.UserBytes) / float64(capacity)
	return res, nil
}
