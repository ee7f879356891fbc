package main

import "runtime"

// The registry is the single list of names this benchmark emits.
// BENCHMARK.json at the repository root repeats it for the driver;
// bench_test.go fails when the two disagree.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// workloads are the five closed-loop traffic mixes, in suite order.
var workloads = []workloadDef{
	{"dev-read-lowvk", "ZippyDB 48B/43B on one 128MB AnyKey+ device, 5% writes: metadata overflows DRAM, so core lookups, nand reads, sim and workload generation do the work"},
	{"dev-write-highvk", "W-PinK 32B/1KB on one 256MB AnyKey+ device, 80% writes: the same core/nand layers used the other way - value log, compaction, GC, program, payload store"},
	{"fleet-batch", "4x64MB replicated fleet (R=2,W=2), batches of 64, 80% MultiGet: batch split/merge, ring walk and replicated writes dominate; the only fleet-backend workload"},
	{"srv-read", "anykeyserver child, 4 shards, pipeline 8, 70% GET 25% MGETx4 5% SET: RESP, TCP, bridge hop, shard loop and its always-on tracer do the work; devices do little"},
	{"srv-write-txn", "same server, pipeline 1, 40% SET 20% INCR 15% MULTI/EXEC 5% CAS 20% GET: writes cross RawWrite and the txn coordinator mutex, 2PC syncs reach the devices"},
}

// endToEnd are the metrics a user of the system sees. All are wall-clock
// and measured at the load generator, so every workload emits every one;
// the simulated-clock numbers live in perLayer (see README, "Demotions").
// Each bound is at least three times the widest spread between quartiles
// seen over ten seeds on any workload (README, "Seed baseline").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"wall_read_p50_us", "us", "lower", 0.15},
	{"wall_read_p99_us", "us", "lower", 0.25},
	{"wall_write_p50_us", "us", "lower", 0.15},
	{"wall_write_p99_us", "us", "lower", 0.25},
}

// probeNames are the ladder rungs; each emits <name>_ns and <name>_allocs.
var probeNames = []string{
	"workload.next", "payload.fill_4k", "kv.entity_codec",
	"memtable.put", "memtable.get", "sim.timeline_schedule",
	"nand.read", "nand.program", "nand.program_flyweight",
	"core.get", "core.put", "pink.get", "pink.put", "cache.hit",
	"host.submit", "cluster.route", "cluster.multiget64", "cluster.multiget64_workers",
	"fleet.put_r2", "fleet.get_r2", "txn.incr", "txn.atomic16", "txn.rawwrite",
	"trace.span", "trace.blame_full_ring",
	"server.client_codec", "server.ping_rtt", "metrics.scrape",
}

// blameCauses are the virtual-time tail causes reported as blame.<c>_share.
var blameCauses = []string{
	"compaction", "gc", "flush", "write-stall", "host-queue", "controller-cpu", "self", "unknown",
}

// cpuPackages are the packages under anykey/internal that get a CPU-profile
// bucket of their own; cpuBuckets, reported as cpu.<b>_share, adds runtime,
// syscall, bench (the load generator itself) and other (the remaining
// standard library and repository packages), so that the shares of one
// profile sum to 1.
var cpuPackages = []string{
	"trace", "server", "metrics", "txn", "cluster", "fleet", "host", "core", "nand",
	"sim", "kv", "memtable", "cache", "workload", "payload",
}

var cpuBuckets = append(append([]string{}, cpuPackages...), "runtime", "syscall", "bench", "other")

// exactLayer are the per-layer numbers taken over the fixed op window of an
// in-process workload: for one seed they repeat to the last digit, which the
// determinism guard enforces and `bench compare` relies on.
var exactLayer = []string{
	"sim_kiops", "sim_read_p50_us", "sim_read_p99_us", "sim_write_p99_us", "sim_waf",
	"nand.page_reads", "nand.page_writes", "nand.erases", "nand.reads_per_get", "nand.store_resident_mb",
	"core.tree_compactions", "core.log_compactions", "core.chained_compactions",
	"core.gc_runs", "core.gc_relocations", "core.dram_used_frac", "core.flash_bytes_per_live_byte",
	"cluster.hottest_shard_frac", "fleet.quorum_failures", "fleet.read_fallbacks",
}

// perLayer is built once from the lists above plus the fixed counters.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	// Simulated-clock results over the fixed op window of the in-process
	// workloads; exact for a given seed.
	add("sim_kiops", "kops/s", "higher")
	add("sim_read_p50_us", "us", "lower")
	add("sim_read_p99_us", "us", "lower")
	add("sim_write_p99_us", "us", "lower")
	add("sim_waf", "ratio", "lower")

	for _, p := range probeNames {
		add(p+"_ns", "ns", "lower")
		add(p+"_allocs", "count", "lower")
	}

	// Work counts over the measured phase.
	add("nand.page_reads", "count", "lower")
	add("nand.page_writes", "count", "lower")
	add("nand.erases", "count", "lower")
	add("nand.reads_per_get", "ratio", "lower")
	add("nand.store_resident_mb", "MB", "lower")
	add("core.tree_compactions", "count", "lower")
	add("core.log_compactions", "count", "lower")
	add("core.chained_compactions", "count", "lower")
	add("core.gc_runs", "count", "lower")
	add("core.gc_relocations", "count", "lower")
	add("core.dram_used_frac", "ratio", "lower")
	add("core.flash_bytes_per_live_byte", "ratio", "lower")
	add("cluster.hottest_shard_frac", "ratio", "lower")
	add("fleet.quorum_failures", "count", "lower")
	add("fleet.read_fallbacks", "count", "lower")
	add("txn.commits", "count", "higher")
	add("txn.aborts", "count", "lower")
	add("txn.retries", "count", "lower")
	add("txn.split_merges", "count", "higher")
	add("txn.commit_frac", "ratio", "higher")
	add("server.shed", "count", "lower")
	add("server.timeouts", "count", "lower")
	add("server.op_errors", "count", "lower")
	add("server.virt_p99_us", "us", "lower")
	add("runtime.allocs_per_op", "count", "lower")
	add("runtime.bytes_per_op", "B", "lower")
	add("runtime.gc_cpu_frac", "ratio", "lower")

	// Traced run: the benchmark's own spans.
	add("bench.gen_ns_per_op", "ns", "lower")
	add("bench.submit_ns_per_op", "ns", "lower")
	add("bench.verify_ns_per_op", "ns", "lower")
	add("bench.self_ns_per_op", "ns", "lower")
	add("client.encode_ns_per_op", "ns", "lower")
	add("client.wait_ns_per_op", "ns", "lower")
	add("client.parse_ns_per_op", "ns", "lower")
	add("bench.trace_overhead_frac", "ratio", "lower")
	add("bench.read_samples", "count", "higher")
	add("bench.write_samples", "count", "higher")

	for _, c := range blameCauses {
		add("blame."+c+"_share", "ratio", "lower")
	}
	for _, b := range cpuBuckets {
		add("cpu."+b+"_share", "ratio", "lower")
	}
	return out
}

// drivers is C, the number of load-generating threads or connections.
func drivers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}
