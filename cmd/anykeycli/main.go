// Command anykeycli is an interactive shell over a simulated KV-SSD: open a
// device with any of the paper's designs and issue put/get/delete/scan
// while watching simulated latencies and device internals.
//
// Usage:
//
//	anykeycli -design anykey+ -capacity 64
//	anykeycli -design anykey -fault-read-err 0.01 -cut-at-op 5000
//	anykeycli -design anykey+ -crashsweep -trials 8
//	anykeycli -shards 4 -router consistent     # sharded cluster shell
//	anykeycli net -addr 127.0.0.1:6380         # RESP client for anykeyserver (see net.go)
//
// Commands:
//
//	put <key> <value>      store a pair
//	get <key>              read the newest value
//	del <key>              delete a key
//	scan <start> <n>       range query
//	fill <n> <valuesize>   bulk-load n synthetic pairs
//	sync                   flush the write buffer (durability point)
//	cycle                  power-cycle: drop volatile state, recover from flash
//	stats                  flash counters, compaction/GC, injected faults
//	meta                   metadata structures and placement
//	trace on|off           start/stop event tracing
//	trace save <file>      export the trace as Chrome trace_event JSON
//	trace csv <file>       export the trace as CSV
//	trace blame [pct]      tail-latency blame report (default P99)
//	storm <ops/s> <ms> [timeout-ms]
//	                       open-loop burst: Poisson GET arrivals at the given
//	                       rate for the given span, reporting deadline misses
//	quit
//
// -crashsweep runs the power-cut crash-consistency sweep from
// internal/fault/crashtest against the chosen design and prints one line
// per trial, instead of starting the shell.
//
// With -shards N the shell drives a sharded N-device cluster through the
// batched MultiPut/MultiGet API instead of one device. Add -replication R
// (and optionally -wquorum W) to replicate every key to R ring members and
// unlock the elastic-fleet commands. Cluster commands:
//
//	put/get/del <key> ...  single-key ops (each line shows the shard)
//	mput <k>=<v> ...       one batch across the fleet
//	mget <k> ...           one batched read
//	incr <k> [delta]       transactional counter add (OCC retry; hot keys split)
//	append <k> <suffix>    transactional append
//	cas <k> <old|-> <new>  compare-and-swap ('-' expects the key absent)
//	txn <k>=<v>|del:<k> .. one atomic cross-shard commit (2PC)
//	shard <key>            which shard a key routes to
//	stats                  merged rollup plus the per-shard breakdown
//	addshard               grow the ring by one member (starts a migration)
//	rmshard <id>           retire a member, streaming its keys to new owners
//	rebalance [n]          step the in-flight migration by n keys (default: drain it)
//	rebalance-status       migration progress plus the replication counters
//	kill <id> [powercut|grownbad]
//	                       kill a member device mid-traffic (replicas keep serving)
//	rebuild <id>           replace a dead member, refilling from surviving replicas
//	meta | sync | quit     as in the single-device shell
package main

import (
	"bufio"
	"errors"
	"flag"
	gofmt "fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"anykey"
	"anykey/internal/fault"
	"anykey/internal/fault/crashtest"
	"anykey/internal/workload"
)

func main() {
	// `anykeycli net …` is a self-contained RESP client (see net.go); it
	// has its own flag set, so dispatch before flag.Parse touches os.Args.
	if len(os.Args) > 1 && os.Args[1] == "net" {
		os.Exit(runNet(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}

	design, router := anykey.DesignAnyKeyPlus, anykey.RouteConsistent
	flag.TextVar(&design, "design", design, "pink | anykey | anykey+ | anykey-")
	flag.TextVar(&router, "router", router, "cluster routing policy: consistent | modulo")
	var (
		capacity = flag.Int("capacity", 64, "device capacity in MiB")

		faultSeed   = flag.Int64("fault-seed", 1, "fault-injection seed")
		readErrRate = flag.Float64("fault-read-err", 0, "per-read transient error probability [0,1)")
		progFail    = flag.Float64("fault-program-fail", 0, "per-program failure probability [0,1)")
		eraseFail   = flag.Float64("fault-erase-fail", 0, "per-erase failure probability [0,1)")
		cutAtOp     = flag.Int64("cut-at-op", 0, "cut power before this flash op (1-based; recover with 'cycle')")

		crashsweep = flag.Bool("crashsweep", false, "run the power-cut crash-consistency sweep and exit")
		trials     = flag.Int("trials", 4, "crashsweep: number of cut positions")
		sweepOps   = flag.Int("sweep-ops", 1200, "crashsweep: workload operations per trial")
		sweepSeed  = flag.Int64("sweep-seed", 7, "crashsweep: workload seed")

		shards      = flag.Int("shards", 0, "open a sharded cluster of this many devices instead of one device (0 = single device)")
		replication = flag.Int("replication", 0, "cluster runs: replicate each key to this many ring members (0 = no replication)")
		wquorum     = flag.Int("wquorum", 0, "cluster runs: alive-replica successes required to ack a write (default -replication, write-all)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModes(set, *shards, *replication); err != nil {
		gofmt.Fprintln(os.Stderr, "anykeycli:", err)
		os.Exit(2)
	}

	plan := anykey.FaultPlan{
		Seed:            *faultSeed,
		ReadErrorRate:   *readErrRate,
		ProgramFailRate: *progFail,
		EraseFailRate:   *eraseFail,
		CutAtOp:         *cutAtOp,
	}
	opts := anykey.Options{Design: design, CapacityMB: *capacity}
	if plan.Enabled() {
		opts.Faults = &plan
	}

	if *crashsweep {
		if err := runCrashSweep(opts, *trials, *sweepOps, *sweepSeed, os.Stdout); err != nil {
			gofmt.Fprintln(os.Stderr, "anykeycli:", err)
			os.Exit(1)
		}
		return
	}

	if *shards > 0 {
		c, err := anykey.OpenCluster(anykey.ClusterOptions{
			Shards: *shards, Router: router, Device: opts,
			Replication: anykey.ReplicationOptions{Factor: *replication, WriteQuorum: *wquorum},
		})
		if err != nil {
			gofmt.Fprintln(os.Stderr, "anykeycli:", err)
			os.Exit(1)
		}
		defer c.Close()
		gofmt.Printf("opened %d-shard %s cluster (%s router, %d MiB/shard); type 'help' for commands\n",
			*shards, design, router, *capacity)
		if r := c.Replication(); r.Factor > 0 {
			gofmt.Printf("replicating: R=%d W=%d %s; fleet commands available (addshard/rmshard/kill/rebuild)\n",
				r.Factor, r.WriteQuorum, r.ReadMode)
		}
		clusterRepl(c, os.Stdin, os.Stdout)
		return
	}

	dev, err := anykey.Open(opts)
	if err != nil {
		gofmt.Fprintln(os.Stderr, "anykeycli:", err)
		os.Exit(1)
	}
	defer dev.Close()
	gofmt.Printf("opened %s device, %d MiB; type 'help' for commands\n", design, *capacity)
	repl(dev, os.Stdin, os.Stdout)
}

// checkModes rejects a flag that the selected mode would silently ignore;
// set holds the flags given on the command line. Fault injection and the
// power cut are single-device tools, and replication needs a cluster.
func checkModes(set []string, shards, replication int) error {
	if replication > 0 && shards <= 0 {
		return errors.New("-replication needs a -shards cluster")
	}
	if shards > 0 {
		for _, name := range set {
			if strings.HasPrefix(name, "fault-") || name == "cut-at-op" {
				return gofmt.Errorf("-%s applies to a single device, not a -shards cluster", name)
			}
		}
	}
	return nil
}

// clusterRepl runs the command loop over a sharded cluster; split from main
// so tests can drive it with a scripted reader.
func clusterRepl(c *anykey.Cluster, in io.Reader, out io.Writer) {
	fmt := &printer{w: out}
	var mig *anykey.Migration // in-flight topology change, stepped by 'rebalance'
	sc := bufio.NewScanner(in)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch cmd := fields[0]; cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("put <k> <v> | get <k> | del <k> | mput <k>=<v>... | mget <k>... | shard <k> | stats | meta | sync | quit")
			fmt.Println("txn: incr <k> [delta] | append <k> <suffix> | cas <k> <old|-> <new> | txn <k>=<v>|del:<k> ...")
			fmt.Println("fleet: addshard | rmshard <id> | rebalance [n] | rebalance-status | kill <id> [powercut|grownbad] | rebuild <id>")
		case "addshard":
			m, err := c.AddShard()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			mig = m
			st := c.Migrating()
			fmt.Printf("migration started: member %d joining, %d source shards to stream ('rebalance' to drain; traffic keeps flowing, reads double-read until commit)\n",
				st.Subject, st.SourcesTotal)
		case "rmshard":
			if len(fields) != 2 {
				fmt.Println("usage: rmshard <id>")
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("usage: rmshard <id>")
				continue
			}
			m, err := c.RemoveShard(id)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			mig = m
			st := c.Migrating()
			fmt.Printf("migration started: member %d retiring, streaming its keys to the surviving ring ('rebalance' to drain)\n", st.Subject)
		case "rebalance":
			if mig == nil {
				fmt.Println("no migration in flight (start one with 'addshard' or 'rmshard <id>')")
				continue
			}
			n := 0 // Step treats 0 as the default chunk; no arg means drain
			var err error
			done := false
			if len(fields) > 1 {
				if n, err = strconv.Atoi(fields[1]); err != nil || n <= 0 {
					fmt.Println("usage: rebalance [keys-per-step]")
					continue
				}
				done, err = mig.Step(n)
			} else {
				err, done = mig.Run(), true
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fs, _ := c.FleetStats()
			if done {
				mig = nil
				fmt.Printf("migration committed: epoch %d, %d keys (%d bytes) moved, %d stale copies deleted\n",
					fs.Repl.Epoch, fs.Repl.MigratedKeys, fs.Repl.MigratedBytes, fs.Repl.CleanupDeletes)
			} else {
				drained, total := mig.Progress()
				fmt.Printf("stepped: %d/%d source shards drained, %d keys moved so far\n",
					drained, total, fs.Repl.MigratedKeys)
			}
		case "rebalance-status":
			fs, err := c.FleetStats()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			st := c.Migrating()
			if st.Active {
				fmt.Printf("migration active: %s member %d, %d/%d source shards drained\n",
					st.Kind, st.Subject, st.SourcesDone, st.SourcesTotal)
			} else {
				fmt.Printf("no migration in flight (epoch %d, ring of %d)\n", st.Epoch, fs.Repl.RingMembers)
			}
			fmt.Printf("replication: R=%d W=%d %s; %d quorum failures, %d read fallbacks, %d read repairs\n",
				fs.Repl.Factor, fs.Repl.WriteQuorum, fs.Repl.ReadMode,
				fs.Repl.QuorumFailures, fs.Repl.ReadFallbacks, fs.Repl.ReadRepairs)
			fmt.Printf("moved: %d keys (%d bytes) in %d ops, %d cleanup deletes; rebuilds: %d (%d keys)\n",
				fs.Repl.MigratedKeys, fs.Repl.MigratedBytes, fs.Repl.MigrationOps,
				fs.Repl.CleanupDeletes, fs.Repl.Rebuilds, fs.Repl.RebuiltKeys)
			for _, m := range fs.PerShard {
				line := gofmt.Sprintf("  member %d: %s", m.Shard, m.State)
				if m.Cause != "" {
					line += " (" + m.Cause + ")"
				}
				fmt.Printf("%s, %d ops, %d live keys\n", line, m.Ops, m.LiveKeys)
			}
		case "kill":
			if len(fields) < 2 || len(fields) > 3 {
				fmt.Println("usage: kill <id> [powercut|grownbad]")
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("usage: kill <id> [powercut|grownbad]")
				continue
			}
			cause := anykey.KillPowerCut
			if len(fields) == 3 {
				switch fields[2] {
				case "powercut":
					cause = anykey.KillPowerCut
				case "grownbad":
					cause = anykey.KillGrownBad
				default:
					fmt.Printf("unknown kill cause %q (powercut | grownbad)\n", fields[2])
					continue
				}
			}
			if err := c.KillShard(id, cause); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("member %d killed (%v): its data is gone; surviving replicas serve, 'rebuild %d' to replace the hardware\n",
				id, cause, id)
		case "rebuild":
			if len(fields) != 2 {
				fmt.Println("usage: rebuild <id>")
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("usage: rebuild <id>")
				continue
			}
			rb, err := c.RebuildShard(id)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := rb.Run(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			_, _, keys := rb.Progress()
			state, _, _ := c.ShardState(id)
			fmt.Printf("member %d rebuilt: %d keys refilled from surviving replicas, state %s, clock %v\n",
				id, keys, state, c.ShardNow(id))
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			lat, err := c.Put([]byte(fields[1]), []byte(fields[2]))
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			report(fmt, lat, err)
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, lat, err := c.Get([]byte(fields[1]))
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			if err == nil {
				fmt.Printf("%q  ", v)
			}
			report(fmt, lat, err)
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			lat, err := c.Delete([]byte(fields[1]))
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			report(fmt, lat, err)
		case "incr":
			if len(fields) != 2 && len(fields) != 3 {
				fmt.Println("usage: incr <key> [delta]")
				continue
			}
			delta := int64(1)
			if len(fields) == 3 {
				d, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil {
					fmt.Println("usage: incr <key> [delta]")
					continue
				}
				delta = d
			}
			v, lat, err := c.Incr([]byte(fields[1]), delta)
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%d  (%v)\n", v, lat)
		case "append":
			if len(fields) != 3 {
				fmt.Println("usage: append <key> <suffix>")
				continue
			}
			lat, err := c.Append([]byte(fields[1]), []byte(fields[2]))
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			report(fmt, lat, err)
		case "cas":
			if len(fields) != 4 {
				fmt.Println("usage: cas <key> <old|-> <new>   ('-' expects the key absent)")
				continue
			}
			old := []byte(fields[2])
			if fields[2] == "-" {
				old = nil
			}
			lat, err := c.CompareAndSwap([]byte(fields[1]), old, []byte(fields[3]))
			fmt.Printf("[shard %d] ", c.ShardFor([]byte(fields[1])))
			if errors.Is(err, anykey.ErrTxnConflict) && !errors.Is(err, anykey.ErrTxnAborted) {
				fmt.Printf("conflict: %v\n", err)
				continue
			}
			report(fmt, lat, err)
		case "txn":
			if len(fields) < 2 {
				fmt.Println("usage: txn <key>=<value> | del:<key> ...   (one atomic cross-shard commit)")
				continue
			}
			var ops []anykey.TxnOp
			bad := false
			for _, f := range fields[1:] {
				if k, ok := strings.CutPrefix(f, "del:"); ok && k != "" {
					ops = append(ops, anykey.TxnOp{Key: []byte(k), Delete: true})
					continue
				}
				k, v, ok := strings.Cut(f, "=")
				if !ok || k == "" {
					fmt.Printf("malformed op %q (want key=value or del:key)\n", f)
					bad = true
					break
				}
				ops = append(ops, anykey.TxnOp{Key: []byte(k), Value: []byte(v)})
			}
			if bad {
				continue
			}
			br, err := c.AtomicExec(ops)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("committed txn %d: %d ops over shards %v (%v span)\n",
				br.TxnID, len(ops), br.Shards, br.Latency())
		case "mput":
			if len(fields) < 2 {
				fmt.Println("usage: mput <key>=<value> ...")
				continue
			}
			var keys, vals [][]byte
			bad := false
			for _, kv := range fields[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					fmt.Printf("malformed pair %q (want key=value)\n", kv)
					bad = true
					break
				}
				keys = append(keys, []byte(k))
				vals = append(vals, []byte(v))
			}
			if bad {
				continue
			}
			br, err := c.MultiPut(keys, vals)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := br.FirstErr(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("ok: %d pairs over shards %v (%v batch span)\n", len(keys), br.Shards, br.Latency())
		case "mget":
			if len(fields) < 2 {
				fmt.Println("usage: mget <key> ...")
				continue
			}
			var keys [][]byte
			for _, k := range fields[1:] {
				keys = append(keys, []byte(k))
			}
			br, err := c.MultiGet(keys)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for i, comp := range br.Completions {
				if br.Errs[i] != nil {
					fmt.Printf("  [shard %d] %q: %v\n", br.Shards[i], keys[i], br.Errs[i])
					continue
				}
				fmt.Printf("  [shard %d] %q = %q\n", br.Shards[i], keys[i], comp.Value)
			}
			fmt.Printf("batch span %v\n", br.Latency())
		case "shard":
			if len(fields) != 2 {
				fmt.Println("usage: shard <key>")
				continue
			}
			fmt.Printf("%q -> shard %d of %d\n", fields[1], c.ShardFor([]byte(fields[1])), c.Shards())
		case "stats":
			st := c.Stats()
			fmt.Printf("cluster: %d ops, %d live keys (%d bytes), clock %v\n",
				st.Ops, st.LiveKeys, st.LiveBytes, st.Now)
			fmt.Printf("flash: %d reads, %d writes, %d erases\n",
				st.Flash.TotalReads(), st.Flash.TotalWrites(), st.Flash.Erases)
			fmt.Printf("compactions: %d tree, %d log, %d chained; GC: %d runs, %d relocations\n",
				st.TreeCompactions, st.LogCompactions, st.ChainedCompactions, st.GCRuns, st.GCRelocations)
			if ts := c.TxnStats(); ts.Commits+ts.Aborts > 0 {
				fmt.Printf("txn: %d commits, %d aborts (%d conflicts, %d retries), %d atomic batches, %d split merges over %d hot keys\n",
					ts.Commits, ts.Aborts, ts.Conflicts, ts.Retries, ts.AtomicBatches, ts.SplitMerges, ts.HotKeys)
			}
			for _, ss := range st.PerShard {
				fmt.Printf("  shard %d: %d ops, %d live keys, clock %v\n", ss.Shard, ss.Ops, ss.LiveKeys, ss.Now)
			}
			if fs, err := c.FleetStats(); err == nil {
				fmt.Printf("replication: R=%d W=%d, epoch %d, %d quorum failures, %d read fallbacks, %d dead members ('rebalance-status' for detail)\n",
					fs.Repl.Factor, fs.Repl.WriteQuorum, fs.Repl.Epoch,
					fs.Repl.QuorumFailures, fs.Repl.ReadFallbacks, fs.Repl.DeadMembers)
			}
		case "meta":
			for _, m := range c.Metadata() {
				place := "DRAM"
				if !m.InDRAM {
					place = "flash"
				}
				fmt.Printf("  %-24s %10d B  %s\n", m.Name, m.Bytes, place)
			}
		case "sync":
			now, err := c.Sync()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("ok (fleet flushed, clock %v)\n", now)
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}

// runCrashSweep replays a seeded workload, cutting power at evenly spaced
// flash-op boundaries, and verifies the durability contract after each
// recovery (see internal/fault/crashtest).
func runCrashSweep(opts anykey.Options, trials, ops int, seed int64, out io.Writer) error {
	cfg := crashtest.Config{Opts: opts, Ops: ops, Seed: seed, Trials: trials}
	if opts.Faults != nil {
		cfg.Rates = fault.Plan{
			Seed:            opts.Faults.Seed,
			ReadErrorRate:   opts.Faults.ReadErrorRate,
			ProgramFailRate: opts.Faults.ProgramFailRate,
			EraseFailRate:   opts.Faults.EraseFailRate,
		}
		cfg.Opts.Faults = nil // the sweep owns the per-trial plans
	}
	res, err := crashtest.Run(cfg)
	if err != nil {
		return err
	}
	gofmt.Fprintf(out, "crash sweep: %s, %d ops, %d flash ops in pilot, %d trials\n",
		opts.Design, ops, res.PilotFlashOps, len(res.Trials))
	for _, tr := range res.Trials {
		gofmt.Fprintf(out, "  cut@%-6d fired=%-5v ops-applied=%-5d torn=%d lost-log=%d stale-epochs=%d injected=%d\n",
			tr.CutAtOp, tr.CutFired, tr.OpsApplied,
			tr.Recovery.TornPagesSkipped, tr.Recovery.LostLogValues,
			tr.Recovery.StaleEpochsDiscarded, tr.Faults.Total())
	}
	gofmt.Fprintln(out, "all trials verified: synced data survived, no corrupt resurrection")
	return nil
}

// repl runs the command loop; split from main so tests can drive it with a
// scripted reader.
func repl(dev *anykey.Device, in io.Reader, out io.Writer) {
	fmt := &printer{w: out}
	sc := bufio.NewScanner(in)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch cmd := fields[0]; cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("put <k> <v> | get <k> | del <k> | scan <start> <n> | fill <n> <valsize> | sync | cycle | stats | meta | trace on|off|save <f>|csv <f>|blame [pct] | storm <ops/s> <ms> [timeout-ms] | quit")
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			lat, err := dev.Put([]byte(fields[1]), []byte(fields[2]))
			report(fmt, lat, err)
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, lat, err := dev.Get([]byte(fields[1]))
			if err == nil {
				fmt.Printf("%q  ", v)
			}
			report(fmt, lat, err)
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			lat, err := dev.Delete([]byte(fields[1]))
			report(fmt, lat, err)
		case "scan":
			if len(fields) != 3 {
				fmt.Println("usage: scan <start> <n>")
				continue
			}
			n, ok := count(fields[2])
			if !ok {
				fmt.Println("usage: scan <start> <n>")
				continue
			}
			pairs, lat, err := dev.Scan([]byte(fields[1]), n)
			for _, p := range pairs {
				fmt.Printf("  %q = %q\n", p.Key, p.Value)
			}
			report(fmt, lat, err)
		case "fill":
			if len(fields) != 3 {
				fmt.Println("usage: fill <n> <valuesize>")
				continue
			}
			n, nok := count(fields[1])
			vs, vok := count(fields[2])
			if !nok || !vok {
				fmt.Println("usage: fill <n> <valuesize>")
				continue
			}
			val := strings.Repeat("v", vs)
			var failed error
			for i := 0; i < n; i++ {
				if _, err := dev.Put([]byte(gofmt.Sprintf("fill-%09d", i)), []byte(val)); err != nil {
					failed = err
					break
				}
			}
			if failed != nil {
				fmt.Println("stopped:", failed)
			}
			fmt.Printf("device clock now %v\n", dev.Now())
		case "sync":
			lat, err := dev.Sync()
			report(fmt, lat, err)
		case "cycle":
			if err := dev.PowerCycle(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("recovered: %+v\n", dev.Stats().Recovery)
		case "stats":
			st := dev.Stats()
			c := dev.Flash()
			fmt.Printf("live keys: %d (%d bytes)\n", st.LiveKeys, st.LiveBytes)
			fmt.Printf("flash: %d reads, %d writes, %d erases\n", c.TotalReads(), c.TotalWrites(), c.Erases)
			fmt.Printf("compactions: %d tree, %d log, %d chained; GC: %d runs, %d relocations\n",
				st.TreeCompactions, st.LogCompactions, st.ChainedCompactions, st.GCRuns, st.GCRelocations)
			fmt.Printf("DRAM: %d / %d bytes\n", st.DRAMUsed(), st.DRAMCapacity())
			if st.Faults != nil {
				fmt.Printf("injected faults: %+v\n", st.Faults())
			}
		case "meta":
			for _, m := range dev.Metadata() {
				place := "DRAM"
				if !m.InDRAM {
					place = "flash"
				}
				fmt.Printf("  %-24s %10d B  %s\n", m.Name, m.Bytes, place)
			}
		case "trace":
			traceCmd(dev, fmt, fields[1:])
		case "storm":
			stormCmd(dev, fmt, fields[1:])
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}

// count parses a REPL count argument: a non-negative integer.
func count(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

// traceCmd handles the REPL's trace subcommands.
func traceCmd(dev *anykey.Device, fmt *printer, args []string) {
	if len(args) == 0 {
		fmt.Println("usage: trace on|off|save <file>|csv <file>|blame [pct]")
		return
	}
	switch args[0] {
	case "on":
		tr := dev.StartTrace(anykey.TraceOptions{})
		fmt.Printf("tracing on (%d events retained so far)\n", tr.EventCount())
	case "off":
		tr := dev.StopTrace()
		if tr == nil {
			fmt.Println("tracing was not on")
			return
		}
		fmt.Printf("tracing off; %d events discarded (save or blame before 'trace off' to use them)\n", tr.EventCount())
	case "save", "csv":
		if len(args) != 2 {
			fmt.Printf("usage: trace %s <file>\n", args[0])
			return
		}
		tr := dev.Trace()
		if tr == nil {
			fmt.Println("tracing is off (run 'trace on' first)")
			return
		}
		f, err := os.Create(args[1])
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if args[0] == "csv" {
			err = tr.WriteCSV(f)
		} else {
			err = tr.WriteChromeTrace(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("wrote %s (%d events, %d ops)\n", args[1], tr.EventCount(), len(tr.Ops()))
	case "blame":
		tr := dev.Trace()
		if tr == nil {
			fmt.Println("tracing is off (run 'trace on' first)")
			return
		}
		pct := 99.0
		if len(args) > 1 {
			p, err := strconv.ParseFloat(args[1], 64)
			if err != nil || p <= 0 || p > 100 {
				fmt.Println("usage: trace blame [percentile in (0,100]]")
				return
			}
			pct = p
		}
		fmt.Print(tr.Blame(anykey.BlameOptions{Percentile: pct}).String())
	default:
		fmt.Printf("unknown trace subcommand %q\n", args[0])
	}
}

// stormCmd fires an open-loop GET burst at the device: deterministic
// exponential arrivals at the given offered rate for the given virtual-time
// span, submitted through a fresh QD-64 engine's *At path so requests queue
// when the device falls behind. Keys cycle through a small population the
// command writes first; the report counts client-deadline misses and the
// worst end-to-end latency — a hand-held version of the harness's storm
// experiment.
func stormCmd(dev *anykey.Device, fmt *printer, args []string) {
	if len(args) < 2 || len(args) > 3 {
		fmt.Println("usage: storm <ops/s> <millis> [timeout-ms]")
		return
	}
	rate, err1 := strconv.ParseFloat(args[0], 64)
	ms, err2 := strconv.ParseFloat(args[1], 64)
	timeoutMS := 10.0
	var err3 error
	if len(args) == 3 {
		timeoutMS, err3 = strconv.ParseFloat(args[2], 64)
	}
	if err1 != nil || err2 != nil || err3 != nil || rate <= 0 || ms <= 0 || timeoutMS <= 0 {
		fmt.Println("usage: storm <ops/s> <millis> [timeout-ms]")
		return
	}
	const population = 256
	for i := 0; i < population; i++ {
		if _, err := dev.Put([]byte(gofmt.Sprintf("storm-%03d", i)), []byte("storm-value")); err != nil {
			fmt.Println("error pre-filling storm keys:", err)
			return
		}
	}
	eng, err := dev.NewEngine(64)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	arr, err := workload.NewArrivals(workload.ArrivalSpec{
		Shape: workload.ArrivalConstant, Rate: rate,
	}, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var (
		epoch           = eng.Now()
		horizon         = anykey.Duration(ms * 1e6)
		timeout         = anykey.Duration(timeoutMS * 1e6)
		offered, missed int
		worst           anykey.Duration
	)
	for {
		rel := anykey.Duration(arr.Next())
		if rel > horizon {
			break
		}
		comp, err := eng.GetAt(epoch.Add(rel), []byte(gofmt.Sprintf("storm-%03d", offered%population)))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		offered++
		if lat := comp.Latency(); lat > worst {
			worst = lat
		}
		if comp.Latency() > timeout {
			missed++
		}
	}
	fmt.Printf("storm: %d gets offered at %.0f ops/s over %v; %d missed the %v deadline, worst latency %v\n",
		offered, rate, horizon, missed, timeout, worst)
	fmt.Printf("device clock now %v\n", dev.Now())
}

// printer writes REPL output to the configured writer with fmt semantics.
type printer struct{ w io.Writer }

func (p *printer) Print(a ...any)                 { gofmt.Fprint(p.w, a...) }
func (p *printer) Println(a ...any)               { gofmt.Fprintln(p.w, a...) }
func (p *printer) Printf(format string, a ...any) { gofmt.Fprintf(p.w, format, a...) }

func report(fmt *printer, lat anykey.Duration, err error) {
	switch {
	case err == nil:
		fmt.Printf("ok (%v simulated)\n", lat)
	case errors.Is(err, anykey.ErrNotFound):
		fmt.Printf("not found (%v simulated)\n", lat)
	default:
		fmt.Println("error:", err)
	}
}
