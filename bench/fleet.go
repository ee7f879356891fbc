package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"anykey"
	"anykey/internal/device"
	"anykey/internal/harness"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// fleet-batch: batches of 64 keys against a replicated fleet. One batch is
// one closed-loop call; ops are counted per key.

const (
	batchSize      = 64
	batchSpanEvery = 8 // record spans for one batch in this many (traced runs)
)

type fleetSpec struct {
	spec         workload.Spec
	shards       int
	capacityMB   int
	putFrac      float64
	popDiv       uint64 // population = internal/harness's default over this
	windowOps    int64  // key-ops; a multiple of batchSize
	sliceBatches int
}

func fleetSpecFor(smoke bool) fleetSpec {
	s := fleetSpec{spec: mustSpec("ZippyDB"), shards: 4, capacityMB: 64, putFrac: 0.20, popDiv: 1,
		windowOps: 1_000_000 / batchSize * batchSize, sliceBatches: 400}
	if smoke {
		s.capacityMB, s.popDiv, s.windowOps, s.sliceBatches = 32, 16, 40*batchSize, 10
	}
	return s
}

type fleetRun struct {
	s        fleetSpec
	cl       *anykey.Cluster
	gen      *workload.Generator // draws Zipfian ids; versions are tracked here
	kind     *rand.Rand          // picks each batch's kind
	versions []uint32

	warm        anykey.ClusterStats
	startClocks []anykey.Time

	keys, vals [][]byte
	ids        []uint64
	expect     []byte

	readLat, writeLat stats.Histogram
	userBytes         int64
}

func (s fleetSpec) options(traced bool) anykey.ClusterOptions {
	o := anykey.ClusterOptions{
		Shards:      s.shards,
		Router:      anykey.RouteConsistent,
		Workers:     drivers(),
		Replication: anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2},
		Device:      anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: s.capacityMB},
	}
	if traced {
		o.Device.Trace = &anykey.TraceOptions{}
	}
	return o
}

func setupFleet(s fleetSpec, seed int64, traced bool) (*fleetRun, error) {
	opts := s.options(traced)
	cl, err := anykey.OpenCluster(opts)
	if err != nil {
		return nil, err
	}
	rc := harness.ClusterRunConfig{Cluster: opts, BaseConfig: harness.BaseConfig{Workload: s.spec}}
	pop, err := rc.Population()
	if err != nil {
		return nil, err
	}
	pop /= s.popDiv
	gen, err := workload.NewGenerator(s.spec, workload.Config{Population: pop, Theta: 0.99, Seed: seed})
	if err != nil {
		return nil, err
	}
	f := &fleetRun{
		s: s, cl: cl, gen: gen,
		kind:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		versions: make([]uint32, pop),
		keys:     make([][]byte, batchSize),
		vals:     make([][]byte, batchSize),
		ids:      make([]uint64, batchSize),
	}
	for done := uint64(0); done < pop; {
		n := min(uint64(batchSize), pop-done)
		for j := uint64(0); j < n; j++ {
			id := gen.LoadID(done + j)
			f.keys[j] = workload.AppendKey(f.keys[j][:0], s.spec, id)
			f.vals[j] = workload.AppendValue(f.vals[j][:0], s.spec, id, 0)
		}
		br, err := cl.MultiPut(f.keys[:n], f.vals[:n])
		if err == nil {
			err = br.FirstErr()
		}
		if err != nil {
			return nil, fmt.Errorf("fleet warm-up: %w", err)
		}
		done += n
	}
	if _, err := cl.Barrier(); err != nil {
		return nil, err
	}
	f.warm = cl.Stats()
	for _, ss := range f.warm.PerShard {
		f.startClocks = append(f.startClocks, ss.Now)
	}
	for _, tr := range cl.Tracers() {
		tr.Reset()
	}
	return f, nil
}

// generate fills the batch slots and reports whether it is a put batch.
func (f *fleetRun) generate() (put bool) {
	put = f.kind.Float64() < f.s.putFrac
	for j := 0; j < batchSize; j++ {
		op := f.gen.Next()
		f.ids[j], f.keys[j] = op.ID, op.Key
		if put {
			f.versions[op.ID]++
			f.vals[j] = workload.AppendValue(f.vals[j][:0], f.s.spec, op.ID, f.versions[op.ID])
		}
	}
	return put
}

func (f *fleetRun) submit(put bool) (*anykey.BatchResult, error) {
	if put {
		return f.cl.MultiPut(f.keys, f.vals)
	}
	return f.cl.MultiGet(f.keys)
}

// account checks every key of a batch and records simulated latencies.
func (f *fleetRun) account(put bool, br *anykey.BatchResult, err error, inWindow bool, m *measurement) {
	m.attempted += batchSize
	if err != nil {
		m.failed += batchSize - 1 // fail counts the last one
		m.fail("batch: %v", err)
		return
	}
	for i, comp := range br.Completions {
		if e := br.Errs[i]; e != nil {
			m.fail("%s id %d: %v", map[bool]string{true: "put", false: "get"}[put], f.ids[i], e)
			continue
		}
		if put {
			if inWindow {
				f.writeLat.Record(comp.Latency())
				f.userBytes += int64(len(f.keys[i]) + len(f.vals[i]))
			}
			continue
		}
		f.expect = workload.AppendValue(f.expect[:0], f.s.spec, f.ids[i], f.versions[f.ids[i]])
		if !bytes.Equal(comp.Value, f.expect) {
			m.fail("get id %d: payload differs from the model", f.ids[i])
		}
		if inWindow {
			f.readLat.Record(comp.Latency())
		}
	}
}

func (f *fleetRun) window() simWindow {
	_, _ = f.cl.Barrier()
	st := f.cl.Stats()
	var slowest anykey.Duration
	var hottest, total int64
	for i, ss := range st.PerShard {
		slowest = max(slowest, ss.Now.Sub(f.startClocks[i]))
		ops := ss.Ops - f.warm.PerShard[i].Ops
		hottest = max(hottest, ops)
		total += ops
	}
	fl := st.Flash.Sub(f.warm.Flash)
	rp := f.readLat.Quantiles(50, 99)
	opts := f.s.options(false)
	_ = opts.Validate() // fills the per-shard DRAM budget the ratio needs
	w := simWindow{
		"sim_kiops":                      ratio(float64(f.s.windowOps), slowest.Seconds()) / 1e3,
		"sim_read_p50_us":                rp[0].Microseconds(),
		"sim_read_p99_us":                rp[1].Microseconds(),
		"sim_write_p99_us":               f.writeLat.Percentile(99).Microseconds(),
		"sim_waf":                        ratio(float64(fl.TotalWrites())*pageSize, float64(f.userBytes)),
		"nand.page_reads":                float64(fl.TotalReads()),
		"nand.page_writes":               float64(fl.TotalWrites()),
		"nand.erases":                    float64(fl.Erases),
		"nand.reads_per_get":             st.ReadAccesses.Mean(),
		"nand.store_resident_mb":         float64(st.Store.ResidentBytes) / (1 << 20),
		"core.tree_compactions":          float64(st.TreeCompactions - f.warm.TreeCompactions),
		"core.log_compactions":           float64(st.LogCompactions - f.warm.LogCompactions),
		"core.chained_compactions":       float64(st.ChainedCompactions - f.warm.ChainedCompactions),
		"core.gc_runs":                   float64(st.GCRuns - f.warm.GCRuns),
		"core.gc_relocations":            float64(st.GCRelocations - f.warm.GCRelocations),
		"core.dram_used_frac":            ratio(float64(device.TotalDRAM(f.cl.Metadata())), float64(opts.Device.DRAMBytes)*float64(f.s.shards)),
		"core.flash_bytes_per_live_byte": ratio(float64(st.Store.LogicalBytes), float64(st.LiveBytes)),
		"cluster.hottest_shard_frac":     ratio(float64(hottest), float64(total)),
	}
	if fs, err := f.cl.FleetStats(); err == nil {
		w["fleet.quorum_failures"] = float64(fs.Repl.QuorumFailures)
		w["fleet.read_fallbacks"] = float64(fs.Repl.ReadFallbacks)
	}
	return w
}

func (f *fleetRun) loop(seconds float64, m *measurement, rec *recorder) simWindow {
	var win simWindow
	var done, batches int64
	var rates []float64
	before := readRuntime()
	start := time.Now()
	for done < f.s.windowOps || time.Since(start).Seconds() < seconds {
		sliceStart := time.Now()
		for i := 0; i < f.s.sliceBatches; i++ {
			inWindow := done < f.s.windowOps
			r := rec
			if batches%batchSpanEvery != 0 {
				r = nil
			}
			root := r.begin("bench.op", -1, batches)
			s := r.begin("bench.gen", root, batches)
			put := f.generate()
			r.end(s)
			s = r.begin("bench.submit", root, batches)
			t0 := time.Now()
			br, err := f.submit(put)
			dt := int64(time.Since(t0))
			r.end(s)
			if put {
				m.writeNs = append(m.writeNs, dt)
			} else {
				m.readNs = append(m.readNs, dt)
			}
			s = r.begin("bench.verify", root, batches)
			f.account(put, br, err, inWindow, m)
			r.end(s)
			r.end(root)
			done += batchSize
			batches++
			if win == nil && done >= f.s.windowOps {
				win = f.window()
			}
		}
		rates = append(rates, float64(f.s.sliceBatches*batchSize)/time.Since(sliceStart).Seconds())
	}
	m.opsPerS = median(rates)
	runtimeLayer(m.layer, before, readRuntime(), done)
	return win
}

func (f *fleetRun) blame() *anykey.BlameReport { return f.cl.Blame(anykey.BlameOptions{}) }
func (f *fleetRun) opsPerRequest() int64       { return batchSize }
func (f *fleetRun) close()                     { f.cl.Close() }
