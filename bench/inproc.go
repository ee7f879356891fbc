package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"time"

	"anykey"
	"anykey/internal/harness"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// In-process workloads drive the library directly. They run for at least
// the requested wall time, in slices of a fixed op count whose rates give
// ops_per_s as a median; the simulated-clock numbers and the work counts
// are taken over a fixed window of the first windowOps operations, so for
// one seed they repeat exactly however long the run lasts.

const (
	wallSampleEvery = 8    // time one call in this many
	spanSampleEvery = 64   // record spans for one request in this many (traced runs)
	setupRepeats    = 3    // set-ups per untraced run; setup_s is their median
	pageSize        = 8192 // anykey.Options' default flash page, bytes
)

// devSpec parameterises a single-device workload.
type devSpec struct {
	spec       workload.Spec
	capacityMB int
	writeRatio float64
	popDiv     uint64 // population = internal/harness's default over this
	windowOps  int64  // fixed window for sim_* metrics and work counts
	sliceOps   int    // ops per rate slice; divides windowOps
}

func mustSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("bench: no Table 2 workload " + name)
	}
	return s
}

func devSpecFor(name string, smoke bool) devSpec {
	var s devSpec
	switch name {
	case "dev-read-lowvk":
		s = devSpec{spec: mustSpec("ZippyDB"), capacityMB: 128, writeRatio: 0.05, popDiv: 1, windowOps: 2_000_000, sliceOps: 100_000}
	case "dev-write-highvk":
		// With the harness's default population (~90 K keys) this mix ends
		// in "kv: device full" after 0.4-0.7 M ops at 256, 384 and 512 MB
		// alike, and with half of it at one seed in six; a third of it ran
		// 6 M ops at each of seeds 1-12 (README, "Seed baseline").
		s = devSpec{spec: mustSpec("W-PinK"), capacityMB: 256, writeRatio: 0.80, popDiv: 3, windowOps: 500_000, sliceOps: 25_000}
	default:
		panic("bench: not a device workload: " + name)
	}
	if smoke {
		s.capacityMB, s.popDiv, s.windowOps, s.sliceOps = 32, 16*s.popDiv, 4000, 1000
	}
	return s
}

// simWindow is what the fixed op window yields: simulated-clock results and
// exact work counts, keyed by per-layer registry name.
type simWindow map[string]float64

// devRun is one opened, warmed device with its generator.
type devRun struct {
	s         devSpec
	dev       *anykey.Device
	eng       *anykey.Engine
	gen       *workload.Generator
	execStart anykey.Time
	warmFlash anykey.FlashCounters

	readLat, writeLat stats.Histogram // simulated latencies inside the window
	userBytes         int64           // key+value bytes written inside the window
}

// setupDev opens the device, loads the population in shuffled order and
// places the phase barrier, as internal/harness does.
func setupDev(s devSpec, seed int64, traced bool) (*devRun, error) {
	opts := anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: s.capacityMB}
	if traced {
		opts.Trace = &anykey.TraceOptions{}
	}
	dev, err := anykey.Open(opts)
	if err != nil {
		return nil, err
	}
	eng, err := dev.NewEngine(64)
	if err != nil {
		return nil, err
	}
	rc := harness.RunConfig{Device: opts, BaseConfig: harness.BaseConfig{Workload: s.spec}}
	gen, err := workload.NewGenerator(s.spec, workload.Config{
		Population: rc.Population() / s.popDiv, Theta: 0.99, WriteRatio: s.writeRatio, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var kbuf, vbuf []byte
	for i := uint64(0); i < gen.Population(); i++ {
		id := gen.LoadID(i)
		kbuf = workload.AppendKey(kbuf, s.spec, id)
		vbuf = workload.AppendValue(vbuf, s.spec, id, 0)
		if _, err := eng.Put(kbuf, vbuf); err != nil {
			return nil, fmt.Errorf("warm-up put %d/%d: %w", i, gen.Population(), err)
		}
	}
	st := dev.Stats()
	*st.ReadAccesses = *stats.NewIntHist(8)
	d := &devRun{s: s, dev: dev, eng: eng, gen: gen, warmFlash: st.Flash()}
	d.execStart = eng.Barrier()
	dev.Trace().Reset()
	return d, nil
}

// submit issues one generated request and returns its completion.
func (d *devRun) submit(op workload.Op) (anykey.Completion, error) {
	if op.Kind == workload.OpPut {
		return d.eng.Put(op.Key, op.Value)
	}
	return d.eng.Get(op.Key)
}

// account checks a completed request against the generator's model and,
// inside the window, records its simulated latency.
func (d *devRun) account(op workload.Op, c anykey.Completion, err error, inWindow bool, m *measurement) {
	m.attempted++
	if err != nil {
		m.fail("%s id %d: %v", kindName(op.Kind), op.ID, err)
		return
	}
	if op.Kind == workload.OpPut {
		if inWindow {
			d.writeLat.Record(c.Latency())
			d.userBytes += int64(len(op.Key) + len(op.Value))
		}
		return
	}
	if !bytes.Equal(c.Value, d.gen.ExpectedValue(op.ID)) {
		m.fail("get id %d: payload differs from the generator's model", op.ID)
	}
	if inWindow {
		d.readLat.Record(c.Latency())
	}
}

func kindName(k workload.OpKind) string {
	if k == workload.OpPut {
		return "put"
	}
	return "get"
}

// window closes the fixed op window: simulated results and exact counts.
func (d *devRun) window() simWindow {
	st := d.dev.Stats()
	fl := st.Flash().Sub(d.warmFlash)
	simS := d.eng.Now().Sub(d.execStart).Seconds()
	fp := d.dev.Footprint()
	rp := d.readLat.Quantiles(50, 99)
	w := simWindow{
		"sim_kiops":                      float64(d.s.windowOps) / simS / 1e3,
		"sim_read_p50_us":                rp[0].Microseconds(),
		"sim_read_p99_us":                rp[1].Microseconds(),
		"sim_write_p99_us":               d.writeLat.Percentile(99).Microseconds(),
		"sim_waf":                        ratio(float64(fl.TotalWrites())*pageSize, float64(d.userBytes)),
		"nand.page_reads":                float64(fl.TotalReads()),
		"nand.page_writes":               float64(fl.TotalWrites()),
		"nand.erases":                    float64(fl.Erases),
		"nand.reads_per_get":             st.ReadAccesses.Mean(),
		"nand.store_resident_mb":         float64(fp.ResidentBytes) / (1 << 20),
		"core.tree_compactions":          float64(st.TreeCompactions),
		"core.log_compactions":           float64(st.LogCompactions),
		"core.chained_compactions":       float64(st.ChainedCompactions),
		"core.gc_runs":                   float64(st.GCRuns),
		"core.gc_relocations":            float64(st.GCRelocations),
		"core.dram_used_frac":            ratio(float64(st.DRAMUsed()), float64(st.DRAMCapacity())),
		"core.flash_bytes_per_live_byte": ratio(float64(fp.LogicalBytes), float64(st.LiveBytes)),
	}
	return w
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters snapshots what the Go runtime has spent so far.
type runtimeCounters struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// runtimeLayer reports the runtime's cost between two snapshots.
func runtimeLayer(layer map[string]float64, a, b runtimeCounters, ops int64) {
	layer["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	layer["runtime.bytes_per_op"] = ratio(float64(b.bytes-a.bytes), float64(ops))
	layer["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.cpu-a.cpu)
}

// loop runs the closed loop on an opened device until both the op window
// and the wall budget are spent. rec is nil on untraced runs.
func (d *devRun) loop(seconds float64, m *measurement, rec *recorder) simWindow {
	var win simWindow
	var done int64
	var rates []float64
	before := readRuntime()
	start := time.Now()
	for done < d.s.windowOps || time.Since(start).Seconds() < seconds {
		sliceStart := time.Now()
		for i := 0; i < d.s.sliceOps; i++ {
			n := done + int64(i)
			inWindow := n < d.s.windowOps
			if rec != nil && n%spanSampleEvery == 0 {
				d.tracedOp(n, inWindow, m, rec)
				continue
			}
			op := d.gen.Next()
			if n%wallSampleEvery != 0 {
				c, err := d.submit(op)
				d.account(op, c, err, inWindow, m)
				continue
			}
			t0 := time.Now()
			c, err := d.submit(op)
			dt := int64(time.Since(t0))
			if op.Kind == workload.OpPut {
				m.writeNs = append(m.writeNs, dt)
			} else {
				m.readNs = append(m.readNs, dt)
			}
			d.account(op, c, err, inWindow, m)
		}
		rates = append(rates, float64(d.s.sliceOps)/time.Since(sliceStart).Seconds())
		done += int64(d.s.sliceOps)
		if win == nil && done >= d.s.windowOps {
			win = d.window()
		}
	}
	m.opsPerS = median(rates)
	runtimeLayer(m.layer, before, readRuntime(), done)
	return win
}

// tracedOp is one request with the benchmark's spans around each stage.
func (d *devRun) tracedOp(n int64, inWindow bool, m *measurement, rec *recorder) {
	root := rec.begin("bench.op", -1, n)
	s := rec.begin("bench.gen", root, n)
	op := d.gen.Next()
	rec.end(s)
	s = rec.begin("bench.submit", root, n)
	c, err := d.submit(op)
	rec.end(s)
	s = rec.begin("bench.verify", root, n)
	d.account(op, c, err, inWindow, m)
	rec.end(s)
	rec.end(root)
}

func (d *devRun) blame() *anykey.BlameReport { return d.dev.Trace().Blame(anykey.BlameOptions{}) }
func (d *devRun) opsPerRequest() int64       { return 1 }
func (d *devRun) close()                     { d.dev.Close() }
