package harness

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"anykey"
	"anykey/internal/model"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/workload"
)

// ExpOptions tunes an experiment run.
type ExpOptions struct {
	// CapacityMB is the simulated device size (default 64 — 1/1024 of the
	// paper's device with all ratios preserved; see DESIGN.md §2).
	CapacityMB int
	// Quick shrinks runs for CI / go test -bench: a smaller device and a
	// hard op cap per run.
	Quick bool
	// MaxOps, when nonzero, caps the measured operations of every run
	// (the full §5.5 execution length can take hours of wall time on one
	// core; 400k ops per run reaches compaction/GC steady state at the
	// default scale).
	MaxOps int64
	// Parallel fans an experiment's independent cells (each owns its own
	// device) across this many workers; 0 or 1 runs them serially. The
	// report is identical either way — only wall-clock time changes.
	Parallel int
	// Progress, when set, receives one line per completed run.
	Progress io.Writer
	Seed     int64

	// Faults, when set, runs every cell's device under this fault plan
	// (transient read errors, grown-bad blocks). Injection is seeded and
	// deterministic, so a faulted experiment is as reproducible as a clean
	// one; the report notes the plan it ran under.
	Faults *anykey.FaultPlan

	// Trace, when set, opens every cell's device with event tracing enabled
	// and attaches the execution-phase trace and P99 blame report to each
	// Result. Tracing only observes the schedule, so the report tables are
	// identical with or without it.
	Trace *anykey.TraceOptions

	// runner intercepts cell execution; nil means run cells in place. The
	// parallel path swaps in a planning, then replaying, runner.
	runner *cellRunner
}

func (o *ExpOptions) defaults() {
	if o.CapacityMB == 0 {
		o.CapacityMB = 64
		if o.Quick {
			o.CapacityMB = 32
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o *ExpOptions) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// baseRun builds the standard §5 run configuration for a design+workload.
// DRAM is sized at 1/100 of capacity: at this repository's scaled populations
// that reproduces the paper's split — high-v/k workloads' PinK metadata fits
// the DRAM, low-v/k workloads' overflows into flash (see EXPERIMENTS.md on
// why the paper's printed 0.1% ratio corresponds to a different effective
// population-to-DRAM ratio).
func (o *ExpOptions) baseRun(design anykey.Design, spec workload.Spec) RunConfig {
	cfg := RunConfig{
		Device: anykey.Options{
			Design:     design,
			CapacityMB: o.CapacityMB,
			DRAMBytes:  int64(o.CapacityMB) << 20 / 100,
			Seed:       o.Seed,
		},
		BaseConfig: BaseConfig{Workload: spec, Seed: o.Seed},
	}
	// Cells share the plan pointer (Open copies the plan into each device's
	// own injector, and nothing mutates it). Sharing matters for the
	// parallel runner: the cell's memo key is this config value, and the plan and
	// replay passes must produce identical keys.
	cfg.Device.Faults = o.Faults
	cfg.Device.Trace = o.Trace
	if o.Quick {
		cfg.MaxOps = 25000
	} else if o.MaxOps > 0 {
		cfg.MaxOps = o.MaxOps
	}
	return cfg
}

// run executes one measurement cell through the configured runner.
func (o *ExpOptions) run(cfg RunConfig) (*Result, error) { return runCell[*Result](o, cfg) }

// fill executes one fill-to-full cell through the configured runner.
func (o *ExpOptions) fill(opts anykey.Options, spec workload.Spec) (*FillResult, error) {
	return runCell[*FillResult](o, fillConfig{Opts: opts, Spec: spec, Seed: o.Seed})
}

// threeSystems is the comparison set of most figures.
var threeSystems = []anykey.Design{anykey.DesignPinK, anykey.DesignAnyKey, anykey.DesignAnyKeyPlus}

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Paper string // which table/figure it regenerates
	Run   func(ExpOptions) (*Report, error)

	// Serial marks experiments whose cells observe process-global state and
	// so must not fan across workers. The only such state is the payload
	// intern registry: concurrent cells' Notes can evict each other's
	// entries, which never changes any byte a device stores or returns but
	// does change how many value ranges the flyweight store resolves — and
	// fullscale prints those resident bytes. Serial execution keeps its
	// report byte-identical at every -parallel, per the repo contract.
	Serial bool
}

// Experiments returns the registry in the paper's order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2", Paper: "Fig. 2: PinK under varying value-to-key ratios", Run: expFig2},
		{ID: "table1", Paper: "Table 1: analytic metadata sizes (64 GB / 64 MB)", Run: expTable1},
		{ID: "fig10", Paper: "Fig. 10: read-latency CDFs, 7 workloads × 3 systems", Run: expFig10},
		{ID: "fig11", Paper: "Fig. 11: metadata size & flash accesses per read", Run: expFig11},
		{ID: "fig12", Paper: "Fig. 12: IOPS, all 14 workloads × 3 systems", Run: expFig12},
		{ID: "table3", Paper: "Table 3: compaction & GC page I/O", Run: expTable3},
		{ID: "fig13", Paper: "Fig. 13: total page writes (device lifetime)", Run: expFig13},
		{ID: "fig14", Paper: "Fig. 14: storage utilization (fill to full)", Run: expFig14},
		{ID: "fig15", Paper: "Fig. 15: read latency under varying DRAM sizes", Run: expFig15},
		{ID: "fig16", Paper: "Fig. 16: read latency under varying page sizes", Run: expFig16},
		{ID: "fig17", Paper: "Fig. 17: ETC under varying key distributions", Run: expFig17},
		{ID: "fig18", Paper: "Fig. 18: UDB range queries, varying scan length", Run: expFig18},
		{ID: "fig19", Paper: "Fig. 19: value-log size sensitivity", Run: expFig19},
		{ID: "scale", Paper: "§6.8: design scalability (4 TB analytic)", Run: expScale},
		{ID: "multi", Paper: "§6.9: multi-workload partitions", Run: expMulti},
		{ID: "ablation-minus", Paper: "§6.7: AnyKey− (no value log) vs AnyKey+", Run: expAblationMinus},
		{ID: "ablation-group", Paper: "design ablation: data segment group size", Run: expAblationGroup},
		{ID: "ablation-hashlist", Paper: "design ablation: hash lists on/off", Run: expAblationHashlist},
		{ID: "blame", Paper: "tail-latency blame attribution (trace-based)", Run: expBlame},
		{ID: "fullscale", Paper: "full-scale geometry in bounded memory: flyweight store + host cache", Run: expFullscale, Serial: true},
		{ID: "cluster", Paper: "sharded multi-device cluster: shards × QD × skew", Run: expCluster},
		{ID: "storm", Paper: "open-loop overload: goodput collapse & metastability knee", Run: expStorm},
		{ID: "fleet", Paper: "elastic replicated fleet: R × kill-one-device durability, live reshard", Run: expFleet},
		{ID: "txn", Paper: "cross-shard transactions: serialized OCC vs split-phase under contention", Run: expTxn},
	}
}

// RunExperiment executes one experiment by id. With opt.Parallel > 1 its
// independent cells are fanned across a worker pool; the report is
// identical to a serial run.
func RunExperiment(id string, opt ExpOptions) (*Report, error) {
	opt.defaults()
	for _, e := range Experiments() {
		if e.ID == id {
			opt.progress("== %s: %s (device %d MB, quick=%v)", e.ID, e.Paper, opt.CapacityMB, opt.Quick)
			var rep *Report
			var err error
			if opt.Parallel > 1 && !e.Serial {
				rep, err = runParallel(e, opt)
			} else {
				rep, err = e.Run(opt)
			}
			if err == nil && opt.Faults != nil {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"fault plan: seed=%d read-err=%g program-fail=%g erase-fail=%g",
					opt.Faults.Seed, opt.Faults.ReadErrorRate,
					opt.Faults.ProgramFailRate, opt.Faults.EraseFailRate))
			}
			return rep, err
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// mustSpec fetches a Table 2 workload or panics (registry is static).
func mustSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("harness: unknown workload " + name)
	}
	return s
}

// --- Fig. 2 ----------------------------------------------------------------

func expFig2(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "PinK under varying value-to-key ratios (key 40 B)",
		Notes: []string{"Paper: p95 latency explodes and IOPS collapses as v/k falls below ~4.",
			"At this scaled device size absolute IOPS is dominated by per-op data volume;",
			"the metadata effect shows in the latency percentiles (p90/p95 rising as v/k falls)."}}
	t := Table{Name: "PinK, 20% writes, Zipfian 0.99", Header: append([]string{"v/k", "value(B)"}, append(latHeader, "IOPS")...)}
	values := []int{20, 40, 80, 160, 320, 640, 1280}
	if o.Quick {
		values = []int{20, 80, 320, 1280}
	}
	for _, v := range values {
		spec := workload.Custom(fmt.Sprintf("vk%.1f", float64(v)/40), 40, v)
		res, err := o.run(o.baseRun(anykey.DesignPinK, spec))
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.2f", float64(v)/40), fmt.Sprint(v)}
		row = append(row, latRow(&res.ReadLat)...)
		row = append(row, fiops(res.IOPS))
		t.Rows = append(t.Rows, row)
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Table 1 ---------------------------------------------------------------

func expTable1(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "table1", Title: "Analytic metadata sizes, 64 GB SSD full of pairs, 64 MB DRAM",
		Notes: []string{
			"Computed from the same cost model the simulator implements (internal/model).",
			"Shape target: PinK ≫ DRAM and grows as v/k falls; AnyKey pinned within DRAM.",
		}}
	d := model.DeviceSpec{CapacityBytes: 64 << 30, DRAMBytes: 64 << 20, PageSize: 8192, GroupPages: 32}
	t := Table{Header: []string{"v/k (val/key)", "PinK level lists", "PinK meta segs", "PinK sum",
		"AnyKey level lists", "AnyKey hash lists", "AnyKey sum", "fits 64MB DRAM"}}
	for _, w := range []model.WorkloadSpec{
		{KeySize: 40, ValueSize: 160},
		{KeySize: 60, ValueSize: 120},
		{KeySize: 80, ValueSize: 80},
	} {
		p := model.PinK(d, w)
		a := model.AnyKey(d, w)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f (%d/%d)", float64(w.ValueSize)/float64(w.KeySize), w.ValueSize, w.KeySize),
			fbytes(p.LevelLists), fbytes(p.MetaSegments), fbytes(p.Sum()),
			fbytes(a.LevelLists), fbytes(a.HashLists), fbytes(a.Sum()),
			fmt.Sprintf("PinK=%v AnyKey=%v", p.Sum() <= d.DRAMBytes, a.Sum() <= d.DRAMBytes),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Fig. 10 ---------------------------------------------------------------

var fig10Workloads = []string{"RTDATA", "Crypto1", "ZippyDB", "Cache15", "Cache", "W-PinK", "KVSSD"}

func expFig10(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "Read-latency distribution per workload and system",
		Notes: []string{"Paper: AnyKey/AnyKey+ cut low-v/k tails by an order of magnitude; comparable on high-v/k."}}
	wls := fig10Workloads
	if o.Quick {
		wls = []string{"Crypto1", "ZippyDB", "W-PinK"}
	}
	for _, wl := range wls {
		spec := mustSpec(wl)
		t := Table{Name: fmt.Sprintf("%s (key %d B / value %d B, v/k %.1f)", wl, spec.KeySize, spec.ValueSize, spec.VK()),
			Header: append([]string{"system"}, latHeader...)}
		var labels []string
		var hists []*stats.Histogram
		for _, sys := range threeSystems {
			res, err := o.run(o.baseRun(sys, spec))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{res.System}, latRow(&res.ReadLat)...))
			labels = append(labels, res.System)
			hists = append(hists, &res.ReadLat)
		}
		rep.Tables = append(rep.Tables, t, cdfTable(wl+" read-latency CDF", labels, hists))
	}
	return rep, nil
}

// --- Fig. 11 ---------------------------------------------------------------

func expFig11(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig11", Title: "Metadata size/placement and flash accesses per read",
		Notes: []string{"Paper: PinK's meta segments spill to flash on low-v/k, costing 4–7 accesses per read;",
			"AnyKey metadata is DRAM-resident and reads take ≤2 accesses."}}
	wls := []string{"Crypto1", "ZippyDB", "ETC"}
	if o.Quick {
		wls = []string{"Crypto1"}
	}
	for _, wl := range wls {
		spec := mustSpec(wl)
		meta := Table{Name: fmt.Sprintf("(a) metadata structures, %s", wl),
			Header: []string{"system", "structure", "bytes", "placement"}}
		acc := Table{Name: fmt.Sprintf("(b) flash accesses per read, %s", wl),
			Header: []string{"system", "0", "1", "2", "3", "4+", "mean"}}
		for _, sys := range threeSystems {
			res, err := o.run(o.baseRun(sys, spec))
			if err != nil {
				return nil, err
			}
			for _, m := range res.Metadata {
				place := "DRAM"
				if !m.InDRAM {
					place = "flash"
				}
				meta.Rows = append(meta.Rows, []string{res.System, m.Name, fbytes(m.Bytes), place})
			}
			h := res.ReadAccesses
			four := 0.0
			for v := 4; v <= 8; v++ {
				four += h.Frac(v)
			}
			acc.Rows = append(acc.Rows, []string{res.System,
				fpct(h.Frac(0)), fpct(h.Frac(1)), fpct(h.Frac(2)), fpct(h.Frac(3)), fpct(four),
				fmt.Sprintf("%.2f", h.Mean())})
		}
		rep.Tables = append(rep.Tables, meta, acc)
	}
	return rep, nil
}

// --- Fig. 12 ---------------------------------------------------------------

func expFig12(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "IOPS across all Table 2 workloads",
		Notes: []string{"Paper: AnyKey ≈3.15× PinK on low-v/k; AnyKey+ ≥ PinK everywhere (≈15% on high-v/k)."}}
	t := Table{Header: []string{"workload", "v/k", "PinK", "AnyKey", "AnyKey+", "AnyKey/PinK", "AnyKey+/PinK"}}
	wls := workload.Table2
	if o.Quick {
		wls = []workload.Spec{mustSpec("KVSSD"), mustSpec("ETC"), mustSpec("ZippyDB"), mustSpec("RTDATA")}
	}
	var lowVKGain, lowVKn float64
	for _, spec := range wls {
		iops := map[anykey.Design]float64{}
		for _, sys := range threeSystems {
			res, err := o.run(o.baseRun(sys, spec))
			if err != nil {
				return nil, err
			}
			iops[sys] = res.IOPS
		}
		g1 := iops[anykey.DesignAnyKey] / iops[anykey.DesignPinK]
		g2 := iops[anykey.DesignAnyKeyPlus] / iops[anykey.DesignPinK]
		if spec.LowVK() {
			lowVKGain += g1
			lowVKn++
		}
		t.Rows = append(t.Rows, []string{spec.Name, fmt.Sprintf("%.1f", spec.VK()),
			fiops(iops[anykey.DesignPinK]), fiops(iops[anykey.DesignAnyKey]), fiops(iops[anykey.DesignAnyKeyPlus]),
			fratio(g1), fratio(g2)})
	}
	if lowVKn > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("Measured mean AnyKey/PinK gain on low-v/k workloads: %.2fx", lowVKGain/lowVKn))
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Table 3 ---------------------------------------------------------------

func expTable3(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "table3", Title: "Compaction and GC page I/O during execution",
		Notes: []string{"Paper: AnyKey GC ≈ 0 in all cases; AnyKey+ removes the compaction-chain",
			"overhead AnyKey pays on high-v/k workloads."}}
	wls := []string{"Crypto1", "Cache", "W-PinK", "KVSSD"}
	if o.Quick {
		wls = []string{"Crypto1", "KVSSD"}
	}
	t := Table{Header: []string{"workload", "system", "comp.read", "comp.write", "gc.read", "gc.write", "log compactions", "chains"}}
	for _, wl := range wls {
		spec := mustSpec(wl)
		for _, sys := range threeSystems {
			res, err := o.run(o.baseRun(sys, spec))
			if err != nil {
				return nil, err
			}
			c := res.Exec
			compR := c.Reads[nand.CauseCompaction] + c.Reads[nand.CauseFlush]
			compW := c.Writes[nand.CauseCompaction] + c.Writes[nand.CauseFlush]
			t.Rows = append(t.Rows, []string{wl, res.System,
				fcount(compR), fcount(compW),
				fcount(c.Reads[nand.CauseGC]), fcount(c.Writes[nand.CauseGC]),
				fcount(res.LogCompactions), fcount(res.ChainedCompactions)})
		}
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Fig. 13 ---------------------------------------------------------------

func expFig13(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig13", Title: "Total page writes over the whole run (device lifetime)",
		Notes: []string{"Paper: AnyKey+ writes ≈50% fewer pages than PinK on average."}}
	t := Table{Header: []string{"workload", "PinK", "AnyKey", "AnyKey+", "AnyKey+/PinK"}}
	wls := workload.Table2
	if o.Quick {
		wls = []workload.Spec{mustSpec("ETC"), mustSpec("ZippyDB"), mustSpec("W-PinK")}
	}
	var ratioSum, n float64
	for _, spec := range wls {
		writes := map[anykey.Design]int64{}
		for _, sys := range threeSystems {
			res, err := o.run(o.baseRun(sys, spec))
			if err != nil {
				return nil, err
			}
			writes[sys] = res.Total.TotalWrites()
		}
		r := float64(writes[anykey.DesignAnyKeyPlus]) / float64(writes[anykey.DesignPinK])
		ratioSum += r
		n++
		t.Rows = append(t.Rows, []string{spec.Name,
			fcount(writes[anykey.DesignPinK]), fcount(writes[anykey.DesignAnyKey]),
			fcount(writes[anykey.DesignAnyKeyPlus]), fratio(r)})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("Measured mean AnyKey+/PinK page-write ratio: %.2fx", ratioSum/n))
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Fig. 14 ---------------------------------------------------------------

func expFig14(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig14", Title: "Storage utilization: unique user bytes stored at device-full",
		Notes: []string{"Paper: AnyKey/AnyKey+ beat PinK on low-v/k, where PinK burns flash on meta segments."}}
	t := Table{Header: []string{"workload", "PinK", "AnyKey", "AnyKey+"}}
	wls := workload.Table2
	if o.Quick {
		wls = []workload.Spec{mustSpec("KVSSD"), mustSpec("ETC"), mustSpec("Crypto1")}
	}
	for _, spec := range wls {
		row := []string{spec.Name}
		for _, sys := range threeSystems {
			fr, err := o.fill(anykey.Options{Design: sys, CapacityMB: o.CapacityMB, Seed: o.Seed}, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, fpct(fr.Utilization))
		}
		t.Rows = append(t.Rows, row)
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- Fig. 15 ---------------------------------------------------------------

func expFig15(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig15", Title: "Read latency under varying DRAM sizes (AnyKey+)",
		Notes: []string{"DRAM scaled as the paper's 32/64/96 MB sweep: ½×, 1×, 1.5× of the harness default.",
			"Paper: smaller DRAM hurts low-v/k (hash lists shrink); high-v/k is insensitive."}}
	base := int64(o.CapacityMB) << 20 / 100
	for _, wl := range []string{"Crypto1", "ETC", "W-PinK"} {
		spec := mustSpec(wl)
		t := Table{Name: wl, Header: append([]string{"DRAM"}, latHeader...)}
		for _, mult := range []float64{0.5, 1.0, 1.5} {
			cfg := o.baseRun(anykey.DesignAnyKeyPlus, spec)
			cfg.Device.DRAMBytes = int64(float64(base) * mult)
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{fbytes(cfg.Device.DRAMBytes)}, latRow(&res.ReadLat)...))
		}
		rep.Tables = append(rep.Tables, t)
		if o.Quick {
			break
		}
	}
	return rep, nil
}

// --- Fig. 16 ---------------------------------------------------------------

func expFig16(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig16", Title: "Read latency under varying flash page sizes (AnyKey+)",
		Notes: []string{"Paper: larger pages mean fewer groups, smaller metadata, lower tails."}}
	for _, wl := range []string{"Crypto1", "ETC", "W-PinK"} {
		spec := mustSpec(wl)
		t := Table{Name: wl, Header: append([]string{"page size"}, latHeader...)}
		for _, ps := range []int{4096, 8192, 16384} {
			cfg := o.baseRun(anykey.DesignAnyKeyPlus, spec)
			cfg.Device.PageSize = ps
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{fbytes(int64(ps))}, latRow(&res.ReadLat)...))
		}
		rep.Tables = append(rep.Tables, t)
		if o.Quick {
			break
		}
	}
	return rep, nil
}

// --- Fig. 17 ---------------------------------------------------------------

func expFig17(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig17", Title: "ETC read latency under varying Zipfian skew",
		Notes: []string{"Paper: flatter key popularity (lower θ) degrades PinK (cold metadata in flash);",
			"AnyKey stays uniform."}}
	spec := mustSpec("ETC")
	thetas := []float64{0.60, 0.80, 0.99}
	for _, sys := range threeSystems {
		t := Table{Name: sys.String(), Header: append([]string{"theta"}, latHeader...)}
		for _, th := range thetas {
			cfg := o.baseRun(sys, spec)
			cfg.Theta = th
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%.2f", th)}, latRow(&res.ReadLat)...))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// --- Fig. 18 ---------------------------------------------------------------

func expFig18(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig18", Title: "UDB scan-centric workload, varying scan length",
		Notes: []string{"Paper: AnyKey's benefit grows with scan length — consecutive keys share group pages;",
			"PinK's values scatter across data pages.",
			"Scan-centric deployments size the value log small (8% here) so values fold into",
			"the key-ordered groups; a large log would scatter them like PinK's data segments."}}
	spec := mustSpec("UDB")
	lengths := []int{100, 150, 200}
	if o.Quick {
		lengths = []int{100}
	}
	for _, ln := range lengths {
		t := Table{Name: fmt.Sprintf("scan length %d", ln), Header: append([]string{"system"}, append(latHeader, "scan reads/key")...)}
		for _, sys := range threeSystems {
			cfg := o.baseRun(sys, spec)
			cfg.Device.LogFraction = 0.08
			cfg.WriteRatio = 0.1
			cfg.ScanRatio = 0.5
			cfg.ScanLen = ln
			if o.Quick {
				cfg.MaxOps = 4000
			} else {
				cfg.MaxOps = 60000
			}
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			perKey := float64(res.Exec.Reads[nand.CauseUser]) / (float64(res.ScanLat.Count()) * float64(ln))
			row := append([]string{res.System}, latRow(&res.ScanLat)...)
			row = append(row, fmt.Sprintf("%.2f", perKey))
			t.Rows = append(t.Rows, row)
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// --- Fig. 19 ---------------------------------------------------------------

func expFig19(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fig19", Title: "Value-log size sensitivity (AnyKey+)",
		Notes: []string{"Paper: small-value workloads (ZippyDB) are insensitive; larger values (UDB, ETC)",
			"gain IOPS and shed page writes as the log grows from 5% to 15%."}}
	wls := []string{"ZippyDB", "UDB", "ETC"}
	if o.Quick {
		wls = []string{"ZippyDB", "ETC"}
	}
	t := Table{Header: []string{"workload", "log size", "IOPS", "total page writes", "log compactions"}}
	for _, wl := range wls {
		spec := mustSpec(wl)
		for _, frac := range []float64{0.05, 0.10, 0.15} {
			cfg := o.baseRun(anykey.DesignAnyKeyPlus, spec)
			cfg.Device.LogFraction = frac
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{wl, fpct(frac), fiops(res.IOPS),
				fcount(res.Total.TotalWrites()), fcount(res.LogCompactions)})
		}
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- §6.8 scale ------------------------------------------------------------

func expScale(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "scale", Title: "Design scalability: analytic metadata at 4 TB / 4 GB DRAM (Crypto1)",
		Notes: []string{"Paper: PinK's metadata swells beyond any DRAM; AnyKey stays within the 0.1% budget."}}
	t := Table{Header: []string{"capacity", "DRAM", "PinK metadata", "AnyKey metadata", "AnyKey fits"}}
	w := model.WorkloadSpec{KeySize: 76, ValueSize: 50}
	for _, capGB := range []int64{64, 512, 4096} {
		d := model.DeviceSpec{CapacityBytes: capGB << 30, DRAMBytes: capGB << 30 / 1000, PageSize: 8192, GroupPages: 32}
		p := model.PinK(d, w)
		a := model.AnyKey(d, w)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dGB", capGB), fbytes(d.DRAMBytes),
			fbytes(p.Sum()), fbytes(a.Sum()),
			fmt.Sprint(a.Sum() <= d.DRAMBytes),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- §6.9 multi ------------------------------------------------------------

func expMulti(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "multi", Title: "Two co-located workloads on equal partitions",
		Notes: []string{"Each partition (half capacity, half chips) runs its workload independently,",
			"managed by PinK or AnyKey+ (paper: p95 improves 14% for W-PinK, 216% for ZippyDB)."}}
	t := Table{Header: []string{"partition workload", "system", "p95 read", "p99 read", "IOPS"}}
	part := o.CapacityMB / 2
	for _, wl := range []string{"W-PinK", "ZippyDB"} {
		spec := mustSpec(wl)
		var p95 [2]float64
		for i, sys := range []anykey.Design{anykey.DesignPinK, anykey.DesignAnyKeyPlus} {
			cfg := o.baseRun(sys, spec)
			cfg.Device.CapacityMB = part
			cfg.Device.Channels = 4
			cfg.QueueDepth = 32
			cfg.FillFrac = 0.28 // partitions leave extra headroom (§6.9 setup)
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			p95[i] = float64(res.ReadLat.Percentile(95))
			t.Rows = append(t.Rows, []string{wl, res.System,
				fdur(res.ReadLat.Percentile(95)), fdur(res.ReadLat.Percentile(99)), fiops(res.IOPS)})
		}
		if p95[1] > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s p95 improvement: %.0f%%", wl, (p95[0]/p95[1]-1)*100))
		}
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- §6.7 ablation ----------------------------------------------------------

func expAblationMinus(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "ablation-minus", Title: "AnyKey− (no value log) vs AnyKey+ under rising write ratio",
		Notes: []string{"Paper: without the log, higher write ratios collapse IOPS (every compaction",
			"rewrites values); AnyKey+ holds steady."}}
	spec := mustSpec("ETC")
	t := Table{Header: []string{"write ratio", "AnyKey- IOPS", "AnyKey+ IOPS", "AnyKey- writes", "AnyKey+ writes"}}
	ratios := []float64{0.2, 0.4, 0.6}
	if o.Quick {
		ratios = []float64{0.2, 0.6}
	}
	for _, wr := range ratios {
		var iops [2]float64
		var writes [2]int64
		for i, sys := range []anykey.Design{anykey.DesignAnyKeyMinus, anykey.DesignAnyKeyPlus} {
			cfg := o.baseRun(sys, spec)
			cfg.WriteRatio = wr
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			iops[i] = res.IOPS
			writes[i] = res.Total.TotalWrites()
		}
		t.Rows = append(t.Rows, []string{fpct(wr), fiops(iops[0]), fiops(iops[1]),
			fcount(writes[0]), fcount(writes[1])})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- blame -------------------------------------------------------------------

// defaultTraceOpts is the TraceOptions value the blame experiment forces on
// when the caller didn't ask for tracing. It is a shared package-level
// pointer for the same reason fault plans are: the cell key holds the Options
// value, and the parallel runner's planning and replay passes must produce
// identical keys.
var defaultTraceOpts = &anykey.TraceOptions{}

// expBlame regenerates the paper's interference narrative (§6.2's "reads
// stall behind compaction") as a measured table: every above-P99 operation's
// latency decomposed into named causes from the event trace.
func expBlame(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "blame", Title: "Tail-latency blame attribution, above-P99 ops",
		Notes: []string{"Each above-P99 op's end-to-end time is decomposed against the traced",
			"schedule: its own flash work (self), time queued behind background flash",
			"activity by cause, host submission queueing, and controller-CPU time.",
			"Coverage is the fraction of blamed time carrying a real name."}}
	wls := []string{"ZippyDB", "W-PinK"}
	if o.Quick {
		wls = []string{"ZippyDB"}
	}
	causes := []trace.Cause{trace.CauseSelf, trace.CauseCompaction, trace.CauseGC,
		trace.CauseFlush, trace.CauseWriteStall, trace.CauseHostQueue, trace.CauseCPU}
	for _, wl := range wls {
		spec := mustSpec(wl)
		t := Table{Name: wl, Header: []string{"system", "p99 read", "blamed ops", "coverage",
			"self", "compaction", "gc", "flush", "write-stall", "host-queue", "cpu", "other"}}
		for _, sys := range threeSystems {
			cfg := o.baseRun(sys, spec)
			if cfg.Device.Trace == nil {
				cfg.Device.Trace = defaultTraceOpts
			}
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			b := res.Blame
			if b == nil {
				return nil, fmt.Errorf("blame: %s/%s produced no blame report", res.System, wl)
			}
			row := []string{res.System, fdur(res.ReadLat.Percentile(99)),
				fmt.Sprintf("%d/%d", b.BlamedOps, b.TotalOps), fpct(b.Coverage())}
			var named float64
			for _, c := range causes {
				s := b.Share(c)
				named += s
				row = append(row, fpct(s))
			}
			t.Rows = append(t.Rows, append(row, fpct(1-named)))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// SortedExperimentIDs lists the registry ids.
func SortedExperimentIDs() []string {
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	return ids
}

// --- design ablations --------------------------------------------------------

// expAblationGroup sweeps the data segment group size (§4.1 makes it a
// configuration knob; §7.3 of the paper calls adaptive sizing future work):
// smaller groups mean more level-list entries (more DRAM) but finer
// compaction granularity.
func expAblationGroup(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "ablation-group", Title: "AnyKey+ under varying data segment group sizes (ZippyDB)",
		Notes: []string{"Larger groups shrink the DRAM level lists (one entry per group) at the cost of",
			"coarser writes; the paper's default is 32 pages."}}
	spec := mustSpec("ZippyDB")
	t := Table{Header: []string{"group pages", "IOPS", "p95 read", "level lists", "total page writes"}}
	for _, gp := range []int{8, 16, 32} {
		cfg := o.baseRun(anykey.DesignAnyKeyPlus, spec)
		cfg.Device.GroupPages = gp
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		var levelList int64
		for _, m := range res.Metadata {
			if m.Name == "level lists" {
				levelList = m.Bytes
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(gp), fiops(res.IOPS),
			fdur(res.ReadLat.Percentile(95)), fbytes(levelList), fcount(res.Total.TotalWrites())})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// expAblationHashlist removes the hash lists (§4.2): overlapping level
// ranges then cost fruitless group reads, raising read tails and flash
// accesses per read.
func expAblationHashlist(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "ablation-hashlist", Title: "AnyKey+ with and without hash lists (ZippyDB)",
		Notes: []string{"Hash lists prove absence without flash reads; without them every overlapping",
			"level range costs a wasted group read (§4.2)."}}
	spec := mustSpec("ZippyDB")
	t := Table{Header: []string{"hash lists", "IOPS", "p95 read", "accesses/read (mean)"}}
	for _, disabled := range []bool{false, true} {
		cfg := o.baseRun(anykey.DesignAnyKeyPlus, spec)
		cfg.Device.NoHashLists = disabled
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		label := "on"
		if disabled {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, fiops(res.IOPS),
			fdur(res.ReadLat.Percentile(95)), fmt.Sprintf("%.2f", res.ReadAccesses.Mean())})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// --- fullscale ---------------------------------------------------------------

// fullscaleCacheOpts shares one CacheOptions value per byte budget so the
// parallel planner's plan and replay passes build identical cell keys — the
// same reason fault plans and defaultTraceOpts are shared pointers.
var (
	fullscaleCacheMu   sync.Mutex
	fullscaleCacheOpts = map[int64]*anykey.CacheOptions{}
)

func fullscaleCache(budget int64) *anykey.CacheOptions {
	fullscaleCacheMu.Lock()
	defer fullscaleCacheMu.Unlock()
	c, ok := fullscaleCacheOpts[budget]
	if !ok {
		c = &anykey.CacheOptions{CapacityBytes: budget}
		fullscaleCacheOpts[budget] = c
	}
	return c
}

// fullscaleCfg builds one fullscale cell: AnyKey+ driving the KVSSD workload
// (16 B keys, 4 KiB values — the heaviest payload bytes per pair in Table 2)
// at the given capacity. DRAM follows the harness 1/100 rule below the
// flyweight threshold and the paper's 64 GB : 64 MB ratio (1/1024) at and
// above it, so the 64 GB cell is exactly the paper's device geometry.
func (o *ExpOptions) fullscaleCfg(capMB int, maxOps int64) RunConfig {
	dram := int64(capMB) << 20 / 100
	if int64(capMB)<<20 >= 1<<30 {
		dram = int64(capMB) << 20 / 1024
	}
	cfg := RunConfig{
		Device: anykey.Options{
			Design:     anykey.DesignAnyKeyPlus,
			CapacityMB: capMB,
			DRAMBytes:  dram,
			Seed:       o.Seed,
		},
		BaseConfig: BaseConfig{Workload: mustSpec("KVSSD"), Seed: o.Seed, MaxOps: maxOps},
	}
	cfg.Device.Faults = o.Faults
	cfg.Device.Trace = o.Trace
	return cfg
}

// footprintCols renders the shared footprint tail of a fullscale row.
func footprintCols(fp nand.StoreFootprint) []string {
	ratio := 0.0
	if fp.LogicalBytes > 0 {
		ratio = float64(fp.ResidentBytes) / float64(fp.LogicalBytes)
	}
	return []string{
		fcount(fp.LivePages), fbytes(fp.LogicalBytes), fbytes(fp.ResidentBytes),
		fpct(ratio), fcount(fp.RawFallbackPages),
	}
}

// expFullscale measures the memory model (DESIGN.md §13): (a) the raw and
// flyweight payload stores execute the identical schedule while the
// flyweight retains a small fraction of the logical page bytes, (b) the
// Flashield-style host cache converts DRAM into read hits without changing
// device behavior, and (c) the footprint scales to the paper's full 64 GB
// geometry — the cell the raw store would need the device's capacity in host
// RAM to run.
func expFullscale(o ExpOptions) (*Report, error) {
	rep := &Report{ID: "fullscale", Title: "Full-scale geometry in bounded memory: flyweight store and host cache",
		Notes: []string{"The simulator's flash array normally retains every programmed page",
			"byte-for-byte (raw store). The flyweight store keeps only a skeleton per",
			"page and regenerates seed-deterministic workload payloads on read, so a",
			"64 GB device no longer needs 64 GB of host RAM; golden tests pin both",
			"modes to byte-identical reports. 'resident/logical' is host bytes",
			"actually retained over what the raw store would hold."}}

	// (a) Raw vs flyweight on the harness-scale device: same schedule, same
	// counters, an order of magnitude apart in resident payload bytes.
	small := o.CapacityMB
	eq := Table{Name: fmt.Sprintf("(a) memory-mode equivalence (AnyKey+, KVSSD, %d MB)", small),
		Header: []string{"store", "ops", "IOPS", "p99 read", "page writes",
			"live pages", "logical", "resident", "resident/logical", "raw-fallback"}}
	var eqCells []*Result
	for _, mode := range []anykey.MemoryMode{anykey.MemoryRaw, anykey.MemoryFlyweight} {
		cfg := o.fullscaleCfg(small, 0)
		cfg.Device.Memory = mode
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		eqCells = append(eqCells, res)
		row := []string{res.Store.Mode.String(), fcount(res.Ops), fiops(res.IOPS),
			fdur(res.ReadLat.Percentile(99)), fcount(res.Total.TotalWrites())}
		eq.Rows = append(eq.Rows, append(row, footprintCols(res.Store)...))
	}
	rep.Tables = append(rep.Tables, eq)
	if a, b := eqCells[0], eqCells[1]; a.Ops == b.Ops &&
		a.Total.TotalWrites() == b.Total.TotalWrites() &&
		a.ReadLat.Percentile(99) == b.ReadLat.Percentile(99) {
		rep.Notes = append(rep.Notes,
			"equivalence: raw and flyweight ran identical schedules (ops, page writes, p99 agree)")
	} else {
		rep.Notes = append(rep.Notes,
			"WARNING: raw and flyweight cells diverged — the memory mode leaked into behavior")
	}

	// (b) The host cache on the same geometry: write-through admission after
	// repeated misses, budgeted at the device's DRAM size. Device flash
	// counters shrink by exactly the hits; the golden cache test pins the
	// returned bytes.
	budget := int64(small) << 20 / 100
	ct := Table{Name: fmt.Sprintf("(b) Flashield-style host cache (flyweight store, budget %s)", fbytes(budget)),
		Header: []string{"cache", "ops", "IOPS", "p50 read", "p99 read",
			"hits", "misses", "hit rate", "admitted", "evicted", "cache bytes"}}
	for _, cached := range []bool{false, true} {
		cfg := o.fullscaleCfg(small, 0)
		cfg.Device.Memory = anykey.MemoryFlyweight
		label := "off"
		if cached {
			cfg.Device.Cache = fullscaleCache(budget)
			label = "on"
		}
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		row := []string{label, fcount(res.Ops), fiops(res.IOPS),
			fdur(res.ReadLat.Percentile(50)), fdur(res.ReadLat.Percentile(99))}
		if cs := res.Cache; cs != nil {
			hitRate := 0.0
			if cs.Hits+cs.Misses > 0 {
				hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
			}
			row = append(row, fcount(cs.Hits), fcount(cs.Misses), fpct(hitRate),
				fcount(cs.Admitted), fcount(cs.Evicted), fbytes(cs.Bytes))
		} else {
			row = append(row, "-", "-", "-", "-", "-", "-")
		}
		ct.Rows = append(ct.Rows, row)
	}
	rep.Tables = append(rep.Tables, ct)

	// (c) The footprint sweep up to the paper's geometry. MemoryAuto engages
	// the flyweight store at ≥ 1 GiB, so these cells run exactly what a user
	// opening the full-scale device gets by default. The execution phase is
	// op-capped — warm-up (the full population load) dominates and is what
	// sizes the store.
	caps := []int{1024, 4096, 16384, 65536}
	sweepOps := int64(100000)
	if o.Quick {
		caps = []int{1024}
		sweepOps = 8000
	} else if o.MaxOps > 0 {
		sweepOps = o.MaxOps
	}
	fs := Table{Name: "(c) full-scale sweep (AnyKey+, KVSSD, MemoryAuto, paper DRAM ratio 1/1024)",
		Header: []string{"capacity", "DRAM", "keys", "ops", "IOPS",
			"live pages", "logical", "resident", "resident/logical", "raw-fallback"}}
	for _, capMB := range caps {
		cfg := o.fullscaleCfg(capMB, sweepOps)
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		row := []string{fbytes(int64(capMB) << 20), fbytes(cfg.Device.DRAMBytes),
			fcount(int64(res.Population)), fcount(res.Ops), fiops(res.IOPS)}
		fs.Rows = append(fs.Rows, append(row, footprintCols(res.Store)...))
		if capMB == caps[len(caps)-1] && res.Store.LogicalBytes > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"largest cell: %s of programmed pages held in %s resident (%.1f%%; raw mode would need the full %s)",
				fbytes(res.Store.LogicalBytes), fbytes(res.Store.ResidentBytes),
				100*float64(res.Store.ResidentBytes)/float64(res.Store.LogicalBytes),
				fbytes(res.Store.LogicalBytes)))
		}
	}
	rep.Tables = append(rep.Tables, fs)
	return rep, nil
}

// --- cluster -----------------------------------------------------------------

// shardDevice is the standard cluster member: a 16 MB device on a 4×4 chip
// grid, DRAM at the usual 1/100 of capacity.
func (o *ExpOptions) shardDevice(design anykey.Design) anykey.Options {
	return anykey.Options{
		Design:          design,
		CapacityMB:      16,
		Channels:        4,
		ChipsPerChannel: 4,
		DRAMBytes:       16 << 20 / 100,
		Seed:            o.Seed,
	}
}

// clusterBase builds the standard cluster cell: every shard a 16 MB AnyKey+
// device on a 4×4 chip grid (the per-shard capacity stays constant across the
// shard sweep, so scaling is weak scaling), DRAM at the usual 1/100 of
// capacity, batches sized by RunCluster's shards×QD default.
func (o *ExpOptions) clusterBase(shards, qd int, spec workload.Spec) ClusterRunConfig {
	cfg := ClusterRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:     shards,
			QueueDepth: qd,
			Device:     o.shardDevice(anykey.DesignAnyKeyPlus),
		},
		BaseConfig: BaseConfig{Workload: spec, Seed: o.Seed},
	}
	// Op caps scale with the shard count so a capped sweep stays weak
	// scaling: per-shard measured work is constant as the fleet grows.
	// (Without the scaling, per-shard windows shrink as 1/N and a single
	// compaction burst on one shard dominates the slowest-shard elapsed.)
	if o.Quick {
		cfg.MaxOps = int64(shards) * 12000
	} else if o.MaxOps > 0 {
		cfg.MaxOps = int64(shards) * o.MaxOps
	}
	return cfg
}

// clusterRun executes one cluster cell through the configured runner.
func (o *ExpOptions) clusterRun(cfg ClusterRunConfig) (*ClusterResult, error) {
	return runCell[*ClusterResult](o, cfg)
}

// expCluster measures the sharded fleet: throughput scaling with shard count
// (per-shard capacity held constant), the effect of per-shard queue depth on
// batch tails, and router balance under varying Zipfian skew.
func expCluster(o ExpOptions) (*Report, error) {
	if o.Faults != nil {
		return nil, fmt.Errorf("cluster: fault injection is not supported on clusters")
	}
	rep := &Report{ID: "cluster", Title: "Sharded multi-device cluster: batched submission over N devices",
		Notes: []string{"Each shard is an independent 16 MB AnyKey+ device in its own clock domain;",
			"batches split by the router and complete at the merged (max) shard time.",
			"The shard sweep holds per-shard capacity constant (weak scaling), so ideal",
			"throughput scaling is linear in the shard count."}}
	if o.Quick {
		rep.Notes = append(rep.Notes,
			"(-quick windows are too short for scaling fidelity — a single compaction",
			"burst dominates a shard's elapsed time; reports/cluster.txt is the",
			"committed full-length run.)")
	}
	spec := mustSpec("ZippyDB")

	shardCounts := []int{1, 2, 4, 8}
	if o.Quick {
		shardCounts = []int{1, 2, 4}
	}
	scale := Table{Name: "shard scaling (QD 64, Zipfian 0.99)",
		Header: []string{"system", "shards", "ops", "IOPS", "speedup", "p95 read", "p95 batch"}}
	var baseIOPS float64
	for _, n := range shardCounts {
		res, err := o.clusterRun(o.clusterBase(n, 64, spec))
		if err != nil {
			return nil, err
		}
		if n == shardCounts[0] {
			baseIOPS = res.IOPS
		}
		speedup := "n/a"
		if baseIOPS > 0 {
			speedup = fmt.Sprintf("%.2fx", res.IOPS/baseIOPS)
		}
		scale.Rows = append(scale.Rows, []string{res.System, fmt.Sprint(n), fmt.Sprint(res.Ops),
			fiops(res.IOPS), speedup, fdur(res.ReadLat.Percentile(95)), fdur(res.BatchLat.Percentile(95))})
	}
	rep.Tables = append(rep.Tables, scale)

	qds := Table{Name: "queue depth (4 shards, Zipfian 0.99)",
		Header: []string{"QD", "IOPS", "p95 read", "p95 batch", "p95 service"}}
	for _, qd := range []int{1, 16, 64} {
		res, err := o.clusterRun(o.clusterBase(4, qd, spec))
		if err != nil {
			return nil, err
		}
		qds.Rows = append(qds.Rows, []string{fmt.Sprint(qd), fiops(res.IOPS),
			fdur(res.ReadLat.Percentile(95)), fdur(res.BatchLat.Percentile(95)),
			fdur(res.ServiceLat.Percentile(95))})
	}
	rep.Tables = append(rep.Tables, qds)

	skew := Table{Name: "router balance under skew (4 shards, QD 64)",
		Header: []string{"theta", "router", "IOPS", "hottest-shard share", "p95 batch"}}
	for _, theta := range []float64{0.6, 0.8, 0.99} {
		for _, router := range []anykey.RouterPolicy{anykey.RouteConsistent, anykey.RouteModulo} {
			cfg := o.clusterBase(4, 64, spec)
			cfg.Cluster.Router = router
			cfg.Theta = theta
			// Low-skew update streams spread garbage uniformly across
			// segments — the GC worst case — and a full 2×-capacity run
			// exhausts free blocks on this small geometry. Cap the window
			// instead, the same for every theta so the rows compare.
			if cap := int64(cfg.Cluster.Shards) * 250000; cfg.MaxOps == 0 || cfg.MaxOps > cap {
				cfg.MaxOps = cap
			}
			res, err := o.clusterRun(cfg)
			if err != nil {
				return nil, err
			}
			skew.Rows = append(skew.Rows, []string{fmt.Sprintf("%.2f", theta), res.Router,
				fiops(res.IOPS), fpct(res.HottestShare), fdur(res.BatchLat.Percentile(95))})
		}
	}
	rep.Tables = append(rep.Tables, skew)
	return rep, nil
}

// --- storm -------------------------------------------------------------------

// stormBase builds one open-loop cell: a 16 MB device on the 4×4 chip grid
// (the cluster's shard geometry — its closed-loop ZippyDB capacity at QD 64
// is ≈370–380 K IOPS, which anchors the sweep) driven by arrival-clocked
// traffic instead of a fixed op budget. The open-loop client knobs stay at
// their BaseConfig defaults (10 ms timeout, 3 retries, 2 ms SLO); only the
// horizon shrinks under -quick.
func (o *ExpOptions) stormBase(design anykey.Design, arr workload.ArrivalSpec) RunConfig {
	cfg := RunConfig{
		Device: anykey.Options{
			Design:          design,
			CapacityMB:      16,
			Channels:        4,
			ChipsPerChannel: 4,
			DRAMBytes:       16 << 20 / 100,
			Seed:            o.Seed,
			Trace:           o.Trace,
		},
		BaseConfig: BaseConfig{Workload: mustSpec("ZippyDB").WithArrival(arr), Seed: o.Seed},
	}
	cfg.Horizon = 100 * sim.Millisecond
	if o.Quick {
		cfg.Horizon = 20 * sim.Millisecond
	}
	return cfg
}

// goodFrac is the fraction of offered operations that completed within the
// end-to-end SLO (zero during the parallel planner's placeholder pass).
func goodFrac(st *OpenStats) float64 {
	if st.Offered == 0 {
		return 0
	}
	return float64(st.GoodOps) / float64(st.Offered)
}

// expStorm finds the metastable knee. The load sweep offers a flat Poisson
// stream at rates bracketing the device's closed-loop capacity: below it
// goodput tracks offered load; above it the backlog grows without bound,
// every attempt times out, the retries re-offer the same work to an
// already-saturated device, and goodput collapses. The burst probe then
// holds the mean rate fixed below capacity and concentrates it into on/off
// bursts at the same mean: a design is metastable when the burst-built
// backlog plus its retry amplification keeps goodput collapsed even though
// the mean load was sustainable (DESIGN.md §11).
func expStorm(o ExpOptions) (*Report, error) {
	if o.Faults != nil {
		return nil, fmt.Errorf("storm: fault injection is not supported on open-loop runs")
	}
	rep := &Report{ID: "storm", Title: "Open-loop overload: goodput collapse and metastability",
		Notes: []string{"Arrival-clocked ZippyDB traffic against one 16 MB device (the cluster's",
			"shard geometry). Clients time out at 10ms, retry up to 3x with capped",
			"exponential backoff, and an op is 'good' when its end-to-end latency",
			"(first arrival to final completion) meets the 2ms SLO. Goodput divides",
			"good ops by the whole phase including drain. The knee sits far below the",
			"closed-loop QD-64 capacity (~370-380 K IOPS): sustained arrivals trip",
			"flush/compaction stalls whose backlogs cross the client timeout, and",
			"from there retries re-offer the same work to a stalled device."}}

	rates := []float64{25e3, 50e3, 75e3, 100e3, 200e3, 400e3}
	if o.Quick {
		rates = []float64{50e3, 400e3}
	}
	sweep := Table{Name: "goodput vs offered load (constant arrivals)",
		Header: []string{"system", "offered/s", "offered", "done", "goodput/s",
			"good frac", "p99 read e2e", "timeouts", "retries", "dropped"}}
	var kneeNotes []string
	for _, sys := range threeSystems {
		knee := 0.0
		for _, r := range rates {
			res, err := o.run(o.stormBase(sys, workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: r}))
			if err != nil {
				return nil, err
			}
			st := res.Open
			if st == nil {
				return nil, fmt.Errorf("storm: %s @ %s produced no open-loop stats", res.System, fiops(r))
			}
			sweep.Rows = append(sweep.Rows, []string{res.System, fiops(r), fmt.Sprint(st.Offered),
				fmt.Sprint(st.Completed), fiops(st.Goodput), fpct(goodFrac(st)),
				fdur(res.ReadLat.Percentile(99)), fmt.Sprint(st.Timeouts),
				fmt.Sprint(st.Retries), fmt.Sprint(st.Dropped)})
			if knee == 0 && goodFrac(st) < 0.9 {
				knee = r
			}
		}
		if knee > 0 {
			kneeNotes = append(kneeNotes, fmt.Sprintf(
				"knee: %s collapses at %s/s offered (first rate with <90%% of offered ops good)",
				sys, fiops(knee)))
		}
	}
	rep.Tables = append(rep.Tables, sweep)
	rep.Notes = append(rep.Notes, kneeNotes...)

	// The probe holds the mean at the knee and reshapes it: the bursty and
	// diurnal shapes concentrate the same mean into a 2x peak whose on-phase
	// builds a backlog past the client timeout, and the resulting retry
	// storm (multiplied timeouts, drops, recovery long after the burst ends)
	// is the metastable signature a mean-preserving shape change exposes.
	mean, period := 100e3, 50*sim.Millisecond
	if o.Quick {
		mean, period = 100e3, 10*sim.Millisecond
	}
	probe := Table{Name: fmt.Sprintf("burst probe (mean %s/s, burst=2.0, period %v)", fiops(mean), period),
		Header: []string{"system", "arrival", "goodput/s", "good frac", "timeouts",
			"retries", "dropped", "recover", "verdict"}}
	shapes := []workload.ArrivalSpec{
		{Shape: workload.ArrivalConstant, Rate: mean},
		{Shape: workload.ArrivalBursty, Rate: mean, Burst: 2.0, Period: period},
		{Shape: workload.ArrivalDiurnal, Rate: mean, Burst: 2.0, Period: period},
	}
	for _, sys := range threeSystems {
		var constGoodput float64
		for i, a := range shapes {
			res, err := o.run(o.stormBase(sys, a))
			if err != nil {
				return nil, err
			}
			st := res.Open
			if st == nil {
				return nil, fmt.Errorf("storm: %s probe %s produced no open-loop stats", res.System, a)
			}
			verdict := "-"
			if i == 0 {
				constGoodput = st.Goodput
			} else if constGoodput > 0 && st.Goodput < 0.9*constGoodput {
				verdict = "metastable"
			} else if constGoodput > 0 {
				verdict = "stable"
			}
			probe.Rows = append(probe.Rows, []string{res.System, a.Shape.String(),
				fiops(st.Goodput), fpct(goodFrac(st)), fmt.Sprint(st.Timeouts),
				fmt.Sprint(st.Retries), fmt.Sprint(st.Dropped), fdur(st.RecoverTime), verdict})
		}
	}
	rep.Tables = append(rep.Tables, probe)
	return rep, nil
}

// --- fleet -------------------------------------------------------------------

// fleetBase builds one replicated-fleet cell: the cluster experiment's shard
// geometry (16 MB devices on a 4×4 chip grid, DRAM at 1/100) with a
// replication factor, driven by arrival-clocked traffic over the storm
// horizon. The scenario schedule (kill / rebuild / add-shard fractions) is
// left zero for the caller to fill.
func (o *ExpOptions) fleetBase(design anykey.Design, shards int, repl anykey.ReplicationOptions, arr workload.ArrivalSpec) ClusterRunConfig {
	cfg := ClusterRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:      shards,
			QueueDepth:  64,
			Replication: repl,
			Device:      o.shardDevice(design),
		},
		BaseConfig: BaseConfig{Workload: mustSpec("ZippyDB").WithArrival(arr), Seed: o.Seed},
	}
	cfg.Horizon = 100 * sim.Millisecond
	if o.Quick {
		cfg.Horizon = 20 * sim.Millisecond
	}
	return cfg
}

// fleetSystem labels a fleet row: the cluster's system name with its
// replication factor and write quorum.
func fleetSystem(res *ClusterResult) string {
	return fmt.Sprintf("%s R=%d W=%d", res.System, res.ReplStats.Factor, res.ReplStats.WriteQuorum)
}

// expFleet measures the elastic replicated fleet. The durability table kills
// one of four member devices mid-storm at R ∈ {1,2,3} and rebuilds it from
// the survivors while traffic keeps arriving: the oracle then reads back
// every acknowledged write. At R=1 the kill provably loses acknowledged data;
// at R≥2/W=2 it must lose none, and the read-latency windows around the kill
// show the blast radius the outage and the rebuild stream leave on the tail.
// The reshard table grows the ring 4→5 under live load and scores the
// migration by moved fraction, double-read fallbacks and verified reads.
func expFleet(o ExpOptions) (*Report, error) {
	if o.Faults != nil {
		return nil, fmt.Errorf("fleet: fault injection is not supported on fleet runs")
	}
	rep := &Report{ID: "fleet", Title: "Elastic replicated fleet: kill-one-device durability and live resharding",
		Notes: []string{"Four 16 MB member devices (the cluster shard geometry), ZippyDB traffic on",
			"an open arrival clock. Keys replicate to R distinct ring members; a write",
			"acks when W fully-alive replicas complete, a read serves from the first",
			"alive owner and falls back down the walk. Mid-run one member dies (power",
			"cut), then a replacement is refilled from the survivors' scans between",
			"client ops. 'lost acked' counts acknowledged writes the fleet could not",
			"serve afterwards — the durability contract per R/W. The reshard table",
			"adds a fifth member under the same live load; reads double-read through",
			"the old ring until the migration commits, so none should fail or return",
			"stale payloads ('verified' counts fresh reads checked byte-for-byte)."}}

	systems := threeSystems
	factors := []int{1, 2, 3}
	if o.Quick {
		systems = []anykey.Design{anykey.DesignAnyKeyPlus}
		factors = []int{1, 2}
	}
	arr := workload.ArrivalSpec{Shape: workload.ArrivalConstant, Rate: 50e3}

	dur := Table{Name: "kill-one-device durability (4 members, kill@40%, rebuild@55% of horizon)",
		Header: []string{"system", "R", "W", "acked", "lost", "quorum-fail", "read-fallback",
			"rebuilt keys", "rebuild time", "p99 pre", "p99 outage", "p99 post", "goodput/s"}}
	for _, sys := range systems {
		for _, r := range factors {
			w := r
			if w > 2 {
				w = 2
			}
			cfg := o.fleetBase(sys, 4, anykey.ReplicationOptions{Factor: r, WriteQuorum: w}, arr)
			cfg.KillAtFrac, cfg.KillShard, cfg.KillCause = 0.4, 1, anykey.KillPowerCut
			cfg.RebuildAtFrac = 0.55
			res, err := o.clusterRun(cfg)
			if err != nil {
				return nil, err
			}
			repl := res.ReplStats
			dur.Rows = append(dur.Rows, []string{fleetSystem(res), fmt.Sprint(repl.Factor), fmt.Sprint(repl.WriteQuorum),
				fmt.Sprint(res.AckedIDs), fmt.Sprint(res.LostAcked),
				fmt.Sprint(repl.QuorumFailures), fmt.Sprint(repl.ReadFallbacks),
				fmt.Sprint(res.RebuildKeys), fdur(res.RebuildDur),
				fdur(res.ReadPre.Percentile(99)), fdur(res.ReadOutage.Percentile(99)),
				fdur(res.ReadPost.Percentile(99)), fiops(res.Open.Goodput)})
			if repl.Factor >= 2 && repl.WriteQuorum >= 2 && res.LostAcked > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"WARNING: %s lost %d acknowledged writes at R=%d/W=%d — durability contract violated",
					fleetSystem(res), res.LostAcked, repl.Factor, repl.WriteQuorum))
			}
		}
	}
	rep.Tables = append(rep.Tables, dur)

	shard := Table{Name: "live reshard: AddShard 4→5 under load (R=2/W=2, add@30% of horizon)",
		Header: []string{"system", "population", "migrated", "moved frac", "migration time",
			"read-fallback", "verified", "lost", "p99 read"}}
	for _, sys := range systems {
		cfg := o.fleetBase(sys, 4, anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2}, arr)
		cfg.AddShardAtFrac = 0.3
		res, err := o.clusterRun(cfg)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if res.Population > 0 {
			frac = float64(res.ReplStats.MigratedKeys) / float64(res.Population)
		}
		shard.Rows = append(shard.Rows, []string{fleetSystem(res), fmt.Sprint(res.Population),
			fmt.Sprint(res.ReplStats.MigratedKeys), fpct(frac), fdur(res.MigrateDur),
			fmt.Sprint(res.ReplStats.ReadFallbacks), fmt.Sprint(res.Verified),
			fmt.Sprint(res.LostAcked), fdur(res.ReadLat.Percentile(99))})
	}
	rep.Tables = append(rep.Tables, shard)
	return rep, nil
}

// --- txn: cross-shard transactions -----------------------------------------

// txnBase builds the standard transaction cell: the cluster experiment's
// 4 × 16 MB AnyKey+ fleet, a 4096-counter bank, 8 clients × 2 ops per wave.
func (o *ExpOptions) txnBase(mode string, theta, wf float64) TxnRunConfig {
	cfg := TxnRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:     4,
			QueueDepth: 64,
			Device:     o.shardDevice(anykey.DesignAnyKeyPlus),
		},
		Mode:  mode,
		Theta: theta, WriteRatio: wf,
		Seed: o.Seed,
	}
	if o.Quick {
		cfg.Waves = 120
	} else {
		// Full-length cells run 400 waves with a durable sync per commit;
		// the write-heavy cells outgrow the quick geometry's flash before
		// GC can help, so full mode quadruples the per-shard device.
		cfg.Cluster.Device.CapacityMB = 64
		cfg.Cluster.Device.DRAMBytes = 64 << 20 / 100
	}
	return cfg
}

// txnRun executes one transaction cell through the configured runner.
func (o *ExpOptions) txnRun(cfg TxnRunConfig) (*TxnResult, error) {
	return runCell[*TxnResult](o, cfg)
}

// expTxn sweeps Zipfian skew and write fraction for serialized OCC vs
// split-phase concurrency control, and measures the 2PC overhead of atomic
// batches against best-effort MultiPut.
func expTxn(o ExpOptions) (*Report, error) {
	if o.Faults != nil {
		return nil, fmt.Errorf("txn: fault injection is not supported on clusters")
	}
	rep := &Report{ID: "txn", Title: "Cross-shard transactions: OCC vs hot-key split phase",
		Notes: []string{"Counter-increment transactions over a 4096-key Zipfian bank, 4 shards.",
			"occ validates every commit (hot-key splitting off); split moves keys past",
			"4 validation conflicts into a batched commutative phase (doppel-style):",
			"increments buffer per key and merge as one write at phase close, so the",
			"hottest keys stop paying per-op reads, validation, and conflict retries.",
			"Every cell ends with an exactness oracle: each counter must equal the sum",
			"of its committed increments (lost updates and phantom merges both fail)."}}

	knee := Table{Name: "goodput knee (theta x write-fraction)",
		Header: []string{"theta", "writes", "mode", "txns", "committed", "conflicts", "retries",
			"aborts", "abort-rate", "merges", "hot-keys", "goodput(txn/s)", "vs-occ"}}
	for _, theta := range []float64{0.6, 0.99} {
		for _, wf := range []float64{0.2, 0.5, 0.95} {
			var occGood float64
			for _, mode := range []string{TxnModeOCC, TxnModeSplit} {
				res, err := o.txnRun(o.txnBase(mode, theta, wf))
				if err != nil {
					return nil, err
				}
				if mode == TxnModeOCC {
					occGood = res.GoodTxnPerSec
				}
				vs := "1.00x"
				if mode == TxnModeSplit && occGood > 0 {
					vs = fmt.Sprintf("%.2fx", res.GoodTxnPerSec/occGood)
				}
				abortRate := 0.0
				if res.Txns > 0 {
					abortRate = float64(res.Aborted) / float64(res.Txns)
				}
				knee.Rows = append(knee.Rows, []string{
					fmt.Sprint(theta), fmt.Sprint(wf), mode,
					fmt.Sprint(res.Txns), fmt.Sprint(res.Committed),
					fmt.Sprint(res.Conflicts), fmt.Sprint(res.Retries),
					fmt.Sprint(res.Aborted), fpct(abortRate),
					fmt.Sprint(res.Layer.SplitMerges), fmt.Sprint(res.Layer.HotKeys),
					fiops(res.GoodTxnPerSec), vs})
			}
		}
	}
	rep.Tables = append(rep.Tables, knee)

	over := Table{Name: "atomic batch overhead (16-op disjoint batches)",
		Header: []string{"mode", "batches", "ops", "prepares", "p50 batch", "p95 batch", "ops/s", "vs-besteffort"}}
	var baseOps float64
	for _, mode := range []string{TxnModeBestEffort, TxnModeAtomic} {
		res, err := o.txnRun(o.txnBase(mode, 0.99, 0.95))
		if err != nil {
			return nil, err
		}
		if mode == TxnModeBestEffort {
			baseOps = res.OpsPerSec
		}
		vs := "1.00x"
		if mode == TxnModeAtomic && baseOps > 0 {
			vs = fmt.Sprintf("%.2fx", res.OpsPerSec/baseOps)
		}
		over.Rows = append(over.Rows, []string{mode, fmt.Sprint(res.Batches),
			fmt.Sprint(res.Committed), fmt.Sprint(res.Layer.Prepares),
			fdur(res.BatchLat.Percentile(50)), fdur(res.BatchLat.Percentile(95)),
			fiops(res.OpsPerSec), vs})
	}
	rep.Tables = append(rep.Tables, over)

	routers := Table{Name: "router invariance (theta 0.99, writes 0.95)",
		Header: []string{"router", "mode", "committed", "conflicts", "merges", "goodput(txn/s)"}}
	for _, router := range []anykey.RouterPolicy{anykey.RouteConsistent, anykey.RouteModulo} {
		for _, mode := range []string{TxnModeOCC, TxnModeSplit} {
			cfg := o.txnBase(mode, 0.99, 0.95)
			cfg.Cluster.Router = router
			res, err := o.txnRun(cfg)
			if err != nil {
				return nil, err
			}
			routers.Rows = append(routers.Rows, []string{router.String(), mode,
				fmt.Sprint(res.Committed), fmt.Sprint(res.Conflicts),
				fmt.Sprint(res.Layer.SplitMerges), fiops(res.GoodTxnPerSec)})
		}
	}
	rep.Tables = append(rep.Tables, routers)
	return rep, nil
}
