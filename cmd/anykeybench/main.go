// Command anykeybench regenerates the tables and figures of the AnyKey
// paper's evaluation section (ASPLOS 2025) on the simulated device stack.
//
// Usage:
//
//	anykeybench -list
//	anykeybench -exp fig12              # one experiment
//	anykeybench -exp all                # everything, in paper order
//	anykeybench -exp fig10 -capacity 128 -quick=false
//	anykeybench -exp all -parallel 8    # fan cells across 8 workers
//	anykeybench -workload ZippyDB -trace-out trace.json   # traced single run
//	anykeybench -workload ZippyDB -shards 4               # sharded cluster run
//	anykeybench -exp cluster                              # shards × QD × skew sweep
//	anykeybench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
//	anykeybench -exp fullscale -bench-mem     # print the run's peak heap
//	anykeybench -txn-mode split -txn-theta 0.99 -txn-writes 0.5   # one txn cell
//
// Experiment cells (one simulated device each) are independent, so by
// default they are fanned across one worker per CPU; -parallel 1 restores
// the serial path. Reports are identical either way.
//
// With -workload, anykeybench runs one traced measurement of that workload
// instead of an experiment: it prints the run summary and the tail-latency
// blame report (every above -blame-percentile op's time attributed to the
// background work it queued behind), and -trace-out saves the event trace —
// Chrome trace_event JSON loadable in Perfetto / chrome://tracing, or CSV
// when the path ends in .csv. With -exp, -trace attaches a tracer to every
// cell (the reports are identical either way; tracing only observes).
//
// Adding -shards N to a -workload run drives the same mix through a sharded
// N-device cluster via the batched MultiPut/MultiGet API (-router picks the
// key→shard policy, -capacity the MiB per shard, default 16); the blame
// report merges every shard's attribution and -trace-out exports the fleet
// trace with shard ids as track tags.
//
// A flag the chosen mode would ignore is an error (exit 2): the -fault-*
// group outside -exp, the -txn-* knobs without -txn-mode, -arrival-* without
// -workload or without -arrival-shape, -replication without -shards.
//
// Each experiment prints the rows/series of the corresponding paper table
// or figure; EXPERIMENTS.md records the measured-vs-paper comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"anykey"
	"anykey/internal/harness"
	"anykey/internal/workload"
)

func main() {
	design, router := anykey.DesignAnyKeyPlus, anykey.RouteConsistent
	flag.TextVar(&design, "design", design, "single-run mode: pink | anykey | anykey+ | anykey-")
	flag.TextVar(&router, "router", router, "cluster routing policy: consistent | modulo")
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		capacity = flag.Int("capacity", 0, "device capacity in MiB (default 64; paper ratios preserved)")
		quick    = flag.Bool("quick", false, "shrink runs for a fast pass")
		seed     = flag.Int64("seed", 1, "simulation seed")
		maxOps   = flag.Int64("maxops", 0, "cap measured ops per run (0 = the paper's full 2× capacity)")
		parallel = flag.Int("parallel", runtime.NumCPU(), "fan experiment cells across this many workers (1 = serial); reports are identical either way")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		outDir   = flag.String("out", "", "also save each report as .txt and per-table .csv under this directory")

		txnMode    = flag.String("txn-mode", "", "run one transaction cell instead of an experiment: occ | split | atomic | besteffort")
		txnTheta   = flag.Float64("txn-theta", 0, "txn cell: Zipfian skew over the counter population (default 0.99)")
		txnWrites  = flag.Float64("txn-writes", 0, "txn cell: per-op increment probability (default 0.2)")
		txnClients = flag.Int("txn-clients", 0, "txn cell: concurrent transactions per wave (default 8)")
		txnWaves   = flag.Int("txn-waves", 0, "txn cell: waves to run (default 400)")
		txnOps     = flag.Int("txn-ops", 0, "txn cell: operations per transaction (default 2)")
		txnBatch   = flag.Int("txn-batch", 0, "txn cell: atomic/besteffort batch size (default 16)")

		faultSeed   = flag.Int64("fault-seed", 0, "fault-injection seed (defaults to -seed when any fault rate is set)")
		readErrRate = flag.Float64("fault-read-err", 0, "per-read transient error probability [0,1)")
		progFail    = flag.Float64("fault-program-fail", 0, "per-program failure probability [0,1); failed blocks retire as grown-bad")
		eraseFail   = flag.Float64("fault-erase-fail", 0, "per-erase failure probability [0,1); failed blocks retire as grown-bad")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		benchMem   = flag.Bool("bench-mem", false, "sample runtime.ReadMemStats through the run and print the peak heap at the end")

		doTrace  = flag.Bool("trace", false, "attach an event tracer to every experiment cell (reports are unchanged; tracing only observes)")
		traceOut = flag.String("trace-out", "", "single-run mode: save the event trace here (Chrome trace_event JSON; CSV when the path ends in .csv)")
		blamePct = flag.Float64("blame", 99, "single-run mode: blame-report percentile cut")
		wl       = flag.String("workload", "", "run one traced measurement of this Table 2 workload instead of an experiment")

		shards      = flag.Int("shards", 0, "single-run mode: drive the workload through a sharded cluster of this many devices (0 = one device)")
		replication = flag.Int("replication", 0, "cluster runs: replicate each key to this many ring members (0 = no replication)")
		wquorum     = flag.Int("wquorum", 0, "cluster runs: alive replicas a write needs before acking (default = -replication)")

		// Open-loop traffic group: an arrival process turns a -workload run
		// into an open-loop overload measurement (see DESIGN.md §11). The
		// client knobs default to the harness values when left zero.
		arrivalShape  = flag.String("arrival-shape", "", "open loop: arrival shape, constant | bursty | diurnal (empty = closed loop)")
		arrivalRate   = flag.Float64("arrival-rate", 0, "open loop: mean offered load, ops per second of virtual time")
		arrivalBurst  = flag.Float64("arrival-burst", 0, "open loop: peak-to-mean rate ratio in (1,2] (bursty/diurnal)")
		arrivalPeriod = flag.Duration("arrival-period", 0, "open loop: burst/diurnal cycle length, virtual time (bursty/diurnal)")
		timeout       = flag.Duration("timeout", 0, "open loop: client deadline per attempt (default 10ms)")
		retryMax      = flag.Int("retry-max", 0, "open loop: retry budget per op after timeouts (default 3)")
		retryBackoff  = flag.Duration("retry-backoff", 0, "open loop: backoff before the first retry, doubling each retry (default 500µs)")
		retryCap      = flag.Duration("retry-cap", 0, "open loop: exponential backoff cap (default 4ms)")
		slo           = flag.Duration("slo", 0, "open loop: end-to-end latency SLO scoring goodput (default 2ms)")
		horizon       = flag.Duration("horizon", 0, "open loop: offered-load window, virtual time (default 100ms)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModes(set, *txnMode, *wl, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "anykeybench:", err)
		os.Exit(2)
	}

	open := openOpts{
		timeout: anykey.Duration((*timeout).Nanoseconds()),
		retry: harness.RetryPolicy{
			MaxRetries: *retryMax,
			Backoff:    anykey.Duration((*retryBackoff).Nanoseconds()),
			MaxBackoff: anykey.Duration((*retryCap).Nanoseconds()),
		},
		slo:     anykey.Duration((*slo).Nanoseconds()),
		horizon: anykey.Duration((*horizon).Nanoseconds()),
	}
	if *arrivalShape != "" {
		shape, ok := workload.ArrivalShapeByName(*arrivalShape)
		if !ok || shape == workload.ArrivalClosed {
			fmt.Fprintf(os.Stderr, "anykeybench: -arrival-shape %q (want constant | bursty | diurnal)\n", *arrivalShape)
			os.Exit(2)
		}
		open.arrival = workload.ArrivalSpec{
			Shape:  shape,
			Rate:   *arrivalRate,
			Burst:  *arrivalBurst,
			Period: anykey.Duration((*arrivalPeriod).Nanoseconds()),
		}
		if err := open.arrival.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "anykeybench:", err)
			os.Exit(2)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anykeybench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "anykeybench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anykeybench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "anykeybench:", err)
			}
		}()
	}

	if *benchMem {
		s := startMemSampler()
		defer s.print()
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Paper)
		}
		return
	}
	if *txnMode != "" {
		cfg := harness.TxnRunConfig{
			Mode:       *txnMode,
			Theta:      *txnTheta,
			WriteRatio: *txnWrites,
			Seed:       *seed,
			Clients:    *txnClients,
			TxOps:      *txnOps,
			Waves:      *txnWaves,
			BatchOps:   *txnBatch,
		}
		cfg.Cluster.Shards = *shards
		cfg.Cluster.Router = router
		cfg.Cluster.Replication = anykey.ReplicationOptions{Factor: *replication, WriteQuorum: *wquorum}
		if err := runTxnCell(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "anykeybench:", err)
			os.Exit(1)
		}
		return
	}
	if *wl != "" {
		var err error
		if *shards > 0 {
			repl := anykey.ReplicationOptions{Factor: *replication, WriteQuorum: *wquorum}
			err = runCluster(*wl, design, *capacity, *shards, router, repl, *quick, *seed, *maxOps, *blamePct, *traceOut, open)
		} else {
			err = runTraced(*wl, design, *capacity, *quick, *seed, *maxOps, *blamePct, *traceOut, open)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "anykeybench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "anykeybench: -exp required (or -list, -workload)")
		flag.Usage()
		os.Exit(2)
	}

	opt := harness.ExpOptions{CapacityMB: *capacity, Quick: *quick, Seed: *seed, MaxOps: *maxOps, Parallel: *parallel}
	if *doTrace {
		opt.Trace = &anykey.TraceOptions{}
	}
	if *readErrRate > 0 || *progFail > 0 || *eraseFail > 0 {
		fs := *faultSeed
		if fs == 0 {
			fs = *seed
		}
		opt.Faults = &anykey.FaultPlan{
			Seed:            fs,
			ReadErrorRate:   *readErrRate,
			ProgramFailRate: *progFail,
			EraseFailRate:   *eraseFail,
		}
		if err := opt.Faults.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "anykeybench: %v\n", err)
			os.Exit(2)
		}
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := harness.RunExperiment(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "anykeybench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(rep)
		if *outDir != "" {
			if err := rep.WriteFiles(*outDir); err != nil {
				fmt.Fprintf(os.Stderr, "anykeybench: saving %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// memSampler tracks the peak live heap for -bench-mem: a goroutine samples
// runtime.ReadMemStats on a short period, bounding how far the heap can grow
// between observations. Virtual-time runs are CPU-bound for seconds to
// minutes, so a 20 ms period catches the high-water mark closely.
type memSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64 // max HeapAlloc observed
	sys  uint64 // max runtime Sys observed
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	if ms.Sys > s.sys {
		s.sys = ms.Sys
	}
	s.mu.Unlock()
}

// print stops the sampler and emits the machine-greppable peak line
// (scripts/bench.sh mem gates on peak-heap-bytes).
func (s *memSampler) print() {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	peak, sys := s.peak, s.sys
	s.mu.Unlock()
	fmt.Printf("mem: peak-heap-bytes=%d (%.1f MB) runtime-sys-bytes=%d (%.1f MB)\n",
		peak, float64(peak)/(1<<20), sys, float64(sys)/(1<<20))
}

// openOpts carries the parsed open-loop flag group into the single-run
// paths. The zero value means closed loop with all client knobs defaulted.
type openOpts struct {
	arrival workload.ArrivalSpec
	timeout anykey.Duration
	retry   harness.RetryPolicy
	slo     anykey.Duration
	horizon anykey.Duration
}

// apply copies the flag group onto a run's shared config.
func (o openOpts) apply(b *harness.BaseConfig) {
	b.Workload.Arrival = o.arrival
	b.Timeout = o.timeout
	b.Retry = o.retry
	b.SLO = o.slo
	b.Horizon = o.horizon
}

// openHeader prints the effective open-loop configuration (after harness
// defaults) so saved run output is self-describing provenance.
func openHeader(b *harness.BaseConfig) {
	if !b.Workload.Arrival.Open() {
		return
	}
	fmt.Printf("open-loop: arrival %s | timeout %v | retry %dx backoff %v..%v | slo %v | horizon %v\n",
		b.Workload.Arrival, b.Timeout, b.Retry.MaxRetries, b.Retry.Backoff,
		b.Retry.MaxBackoff, b.SLO, b.Horizon)
}

// openSummary prints the open-loop scorecard of a finished run.
func openSummary(st *harness.OpenStats) {
	if st == nil {
		return
	}
	fmt.Printf("open-loop result: offered %d, attempts %d, completed %d, goodput %.0f ops/s, timeouts %d, retries %d, dropped %d, recover %v\n",
		st.Offered, st.Attempts, st.Completed, st.Goodput,
		st.Timeouts, st.Retries, st.Dropped, st.RecoverTime)
}

// checkModes rejects a flag that the selected run mode would silently
// ignore; set holds the flags given on the command line. The mode is
// -txn-mode, else -workload (a cluster run with -shards), else -exp.
func checkModes(set []string, txnMode, wl string, shards int) error {
	given := func(prefix string) bool {
		return slices.ContainsFunc(set, func(name string) bool { return strings.HasPrefix(name, prefix) })
	}
	switch {
	case given("arrival-") && !slices.Contains(set, "arrival-shape"):
		return errors.New("-arrival-rate/-burst/-period need -arrival-shape (closed loop otherwise)")
	case given("arrival-") && wl == "":
		return errors.New("the -arrival-*/-timeout/-retry-*/-slo group applies to -workload runs")
	case slices.Contains(set, "replication") && shards == 0:
		return errors.New("-replication needs a -shards cluster run")
	case txnMode == "" && given("txn-"):
		return errors.New("the -txn-* group needs -txn-mode (occ | split | atomic | besteffort)")
	case (txnMode != "" || wl != "") && given("fault-"):
		return errors.New("the -fault-* group applies to -exp runs")
	}
	return nil
}

// runCluster runs one traced cluster measurement: the workload batched over
// a sharded fleet, with the merged blame report and fleet trace export. A
// nonzero replication factor opens the cluster as a replicated fleet — the
// batched facade drives R copies of every key and the summary reports the
// replication counters. capacity is MiB per shard (0 = 16).
func runCluster(wl string, d anykey.Design, capacity, shards int, pol anykey.RouterPolicy, repl anykey.ReplicationOptions, quick bool, seed, maxOps int64, blamePct float64, traceOut string, open openOpts) error {
	spec, ok := workload.ByName(wl)
	if !ok {
		return fmt.Errorf("unknown workload %q (see internal/workload Table 2)", wl)
	}
	if capacity == 0 {
		capacity = 16
	}
	if maxOps == 0 && quick {
		maxOps = 25000
	}
	cfg := harness.ClusterRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:      shards,
			Router:      pol,
			Replication: repl,
			Device: anykey.Options{
				Design:          d,
				CapacityMB:      capacity,
				Channels:        4,
				ChipsPerChannel: 4,
				DRAMBytes:       int64(capacity) << 20 / 100,
				Seed:            seed,
				Trace:           &anykey.TraceOptions{},
			},
		},
		BaseConfig: harness.BaseConfig{Workload: spec, Seed: seed, MaxOps: maxOps},
	}
	open.apply(&cfg.BaseConfig)
	// Population normalises the defaults, so the header shows the
	// effective configuration the run will use.
	if _, err := cfg.Population(); err != nil {
		return err
	}
	openHeader(&cfg.BaseConfig)
	start := time.Now()
	res, err := harness.RunCluster(cfg)
	if err != nil {
		return err
	}
	openSummary(res.Open)
	fmt.Printf("%s on %s (%s router): %d ops, %.0f IOPS, read p50=%v p99=%v, batch p99=%v\n",
		res.System, res.Workload, res.Router, res.Ops, res.IOPS,
		res.ReadLat.Percentile(50), res.ReadLat.Percentile(99), res.BatchLat.Percentile(99))
	fmt.Printf("shard balance: %v (hottest %.1f%%)\n", res.ShardOps, 100*res.HottestShare)
	if res.ReplStats.Factor > 0 {
		fmt.Printf("replication: R=%d W=%d, quorum failures %d, read fallbacks %d\n",
			res.ReplStats.Factor, res.ReplStats.WriteQuorum,
			res.ReplStats.QuorumFailures, res.ReplStats.ReadFallbacks)
	}
	fmt.Print(res.Cluster.Blame(anykey.BlameOptions{Percentile: blamePct}))
	if traceOut != "" {
		if strings.HasSuffix(traceOut, ".csv") {
			return fmt.Errorf("cluster traces export as Chrome trace_event JSON only")
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = res.Cluster.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("saving trace: %w", err)
		}
		fmt.Printf("fleet trace saved to %s (shard ids on the track labels)\n", traceOut)
	}
	fmt.Printf("(completed in %v wall time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runTxnCell runs one transaction measurement cell (-txn-mode) and prints
// its scorecard: outcome tallies, goodput, and the coordinator's own
// counters (conflict retries, 2PC prepares, split-phase merges).
func runTxnCell(cfg harness.TxnRunConfig) error {
	start := time.Now()
	res, err := harness.RunTxn(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s txn cell (%s): theta=%.2f writes=%.2f\n",
		res.System, res.Mode, res.Theta, res.WriteRatio)
	fmt.Printf("txns: %d offered, %d committed, %d aborted (%d conflicts, %d retries)\n",
		res.Txns, res.Committed, res.Aborted, res.Conflicts, res.Retries)
	fmt.Printf("goodput: %.0f txn/s (%.0f ops/s) over %.3f simulated seconds\n",
		res.GoodTxnPerSec, res.OpsPerSec, res.SimSeconds)
	fmt.Printf("layer: %d prepares, %d atomic batches, %d split merges (%d ops absorbed), %d hot keys\n",
		res.Layer.Prepares, res.Layer.AtomicBatches, res.Layer.SplitMerges,
		res.Layer.SplitOps, res.Layer.HotKeys)
	if res.Batches > 0 {
		fmt.Printf("batch span: p50=%v p99=%v over %d batches\n",
			res.BatchLat.Percentile(50), res.BatchLat.Percentile(99), res.Batches)
	}
	fmt.Printf("oracle: %d checks passed\n", res.Verified)
	fmt.Printf("(completed in %v wall time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runTraced runs one traced measurement of a Table 2 workload, prints the
// blame report, and optionally saves the event trace.
func runTraced(wl string, d anykey.Design, capacity int, quick bool, seed, maxOps int64, blamePct float64, traceOut string, open openOpts) error {
	spec, ok := workload.ByName(wl)
	if !ok {
		return fmt.Errorf("unknown workload %q (see internal/workload Table 2)", wl)
	}
	if capacity == 0 {
		capacity = 64
		if quick {
			capacity = 32
		}
	}
	if maxOps == 0 && quick {
		maxOps = 25000
	}
	cfg := harness.RunConfig{
		Device: anykey.Options{
			Design:     d,
			CapacityMB: capacity,
			DRAMBytes:  int64(capacity) << 20 / 100,
			Seed:       seed,
			Trace:      &anykey.TraceOptions{},
		},
		BaseConfig: harness.BaseConfig{Workload: spec, Seed: seed, MaxOps: maxOps},
	}
	open.apply(&cfg.BaseConfig)
	cfg.Population() // normalise defaults so the header is the effective config
	openHeader(&cfg.BaseConfig)
	start := time.Now()
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	openSummary(res.Open)
	fmt.Printf("%s on %s: %d ops, %.0f IOPS, read p50=%v p99=%v max=%v\n",
		res.System, res.Workload, res.Ops, res.IOPS,
		res.ReadLat.Percentile(50), res.ReadLat.Percentile(99), res.ReadLat.Max())
	rep := res.Trace.Blame(anykey.BlameOptions{Percentile: blamePct})
	fmt.Print(rep)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if strings.HasSuffix(traceOut, ".csv") {
			err = res.Trace.WriteCSV(f)
		} else {
			err = res.Trace.WriteChromeTrace(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("saving trace: %w", err)
		}
		fmt.Printf("trace saved to %s (%d events", traceOut, res.Trace.EventCount())
		if n := res.Trace.DroppedEvents(); n > 0 {
			fmt.Printf(", %d dropped", n)
		}
		fmt.Println(")")
	}
	fmt.Printf("(completed in %v wall time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
