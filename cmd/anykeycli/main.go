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
// Each shell lists its commands with 'help'. The device shell has
// put/get/del/scan, bulk fill, sync, power cycle, stats, metadata, event
// tracing with Chrome/CSV export and tail blame, and storm, an open-loop GET
// burst reporting deadline misses.
//
// -crashsweep runs the power-cut crash-consistency sweep from
// internal/fault/crashtest against the chosen design and prints one line
// per trial, instead of starting the shell.
//
// With -shards N the shell drives a sharded N-device cluster through the
// batched MultiPut/MultiGet API instead of one device, and adds
// transactional incr/append/cas/txn. Add -replication R (and optionally
// -wquorum W) to replicate every key to R ring members and unlock the
// elastic-fleet commands: addshard, rmshard, rebalance, kill and rebuild.
package main

import (
	"bufio"
	"errors"
	"flag"
	gofmt "fmt"
	"io"
	"os"
	"slices"
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
		fmt := &printer{w: os.Stdout}
		shell(clusterCommands(c, fmt), os.Stdin, fmt)
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

// command is one entry of a shell's command table.
type command struct {
	name     string
	args     string // argument syntax, for the usage line and help
	min, max int    // argument count bounds, the name excluded; max < 0: unbounded
	// run executes the command; errUsage prints the usage line, any other
	// error an "error:" line.
	run func(args []string) error
}

var errUsage = errors.New("usage")

func (c *command) usage() string { return strings.TrimSpace(c.name + " " + c.args) }

// shell runs the command loop over one mode's table until quit, exit or the
// end of the input.
func shell(cmds []command, in io.Reader, fmt *printer) {
	sc := bufio.NewScanner(in)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		name, args := fields[0], fields[1:]
		i := slices.IndexFunc(cmds, func(c command) bool { return c.name == name })
		switch {
		case name == "quit" || name == "exit":
			return
		case name == "help":
			for _, c := range cmds {
				fmt.Println(" ", c.usage())
			}
			fmt.Println("  quit")
		case i < 0:
			fmt.Printf("unknown command %q (try 'help')\n", name)
		default:
			c, err := &cmds[i], errUsage
			if len(args) >= c.min && (c.max < 0 || len(args) <= c.max) {
				err = c.run(args)
			}
			if errors.Is(err, errUsage) {
				fmt.Println("usage:", c.usage())
			} else if err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// store is what a device and a cluster share, so put/get/del/meta are
// written once over it.
type store interface {
	Put(key, value []byte) (anykey.Duration, error)
	Get(key []byte) ([]byte, anykey.Duration, error)
	Delete(key []byte) (anykey.Duration, error)
	Metadata() []anykey.MetaStructure
}

// storeCommands is put/get/del/meta over st; where prints what precedes the
// outcome of an op on key (the cluster names the key's shard).
func storeCommands(st store, fmt *printer, where func(key string)) []command {
	return []command{
		{"put", "<key> <value>", 2, 2, func(a []string) error {
			lat, err := st.Put([]byte(a[0]), []byte(a[1]))
			where(a[0])
			return report(fmt, lat, err)
		}},
		{"get", "<key>", 1, 1, func(a []string) error {
			v, lat, err := st.Get([]byte(a[0]))
			where(a[0])
			if err == nil {
				fmt.Printf("%q  ", v)
			}
			return report(fmt, lat, err)
		}},
		{"del", "<key>", 1, 1, func(a []string) error {
			lat, err := st.Delete([]byte(a[0]))
			where(a[0])
			return report(fmt, lat, err)
		}},
		{"meta", "", 0, -1, func([]string) error {
			for _, m := range st.Metadata() {
				place := "DRAM"
				if !m.InDRAM {
					place = "flash"
				}
				fmt.Printf("  %-24s %10d B  %s\n", m.Name, m.Bytes, place)
			}
			return nil
		}},
	}
}

// repl runs the device shell; split from main so tests can drive it with a
// scripted reader.
func repl(dev *anykey.Device, in io.Reader, out io.Writer) {
	fmt := &printer{w: out}
	shell(deviceCommands(dev, fmt), in, fmt)
}

// deviceCommands is the device shell's table.
func deviceCommands(dev *anykey.Device, fmt *printer) []command {
	return append(storeCommands(dev, fmt, func(string) {}),
		command{"scan", "<start> <n>", 2, 2, func(a []string) error {
			n, ok := count(a[1])
			if !ok {
				return errUsage
			}
			pairs, lat, err := dev.Scan([]byte(a[0]), n)
			for _, p := range pairs {
				fmt.Printf("  %q = %q\n", p.Key, p.Value)
			}
			return report(fmt, lat, err)
		}},
		command{"fill", "<n> <valuesize>", 2, 2, func(a []string) error {
			n, nok := count(a[0])
			vs, vok := count(a[1])
			if !nok || !vok {
				return errUsage
			}
			val := []byte(strings.Repeat("v", vs))
			for i := 0; i < n; i++ {
				if _, err := dev.Put([]byte(gofmt.Sprintf("fill-%09d", i)), val); err != nil {
					fmt.Println("stopped:", err)
					break
				}
			}
			fmt.Printf("device clock now %v\n", dev.Now())
			return nil
		}},
		command{"sync", "", 0, -1, func([]string) error {
			lat, err := dev.Sync()
			return report(fmt, lat, err)
		}},
		command{"cycle", "", 0, -1, func([]string) error {
			if err := dev.PowerCycle(); err != nil {
				return err
			}
			fmt.Printf("recovered: %+v\n", dev.Stats().Recovery)
			return nil
		}},
		command{"stats", "", 0, -1, func([]string) error {
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
			return nil
		}},
		command{"trace", "on|off|save <file>|csv <file>|blame [pct]", 1, -1, func(a []string) error {
			return traceCmd(dev, fmt, a)
		}},
		command{"storm", "<ops/s> <millis> [timeout-ms]", 2, 3, func(a []string) error {
			return stormCmd(dev, fmt, a)
		}},
	)
}

// clusterCommands is the cluster shell's table.
func clusterCommands(c *anykey.Cluster, fmt *printer) []command {
	var mig *anykey.Migration // in-flight topology change, stepped by 'rebalance'
	shardOf := func(key string) { fmt.Printf("[shard %d] ", c.ShardFor([]byte(key))) }
	memberID := func(arg string) (int, error) {
		id, err := strconv.Atoi(arg)
		if err != nil {
			err = errUsage
		}
		return id, err
	}
	return append(storeCommands(c, fmt, shardOf),
		command{"mput", "<key>=<value> ...", 1, -1, func(a []string) error {
			var keys, vals [][]byte
			for _, kv := range a {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					fmt.Printf("malformed pair %q (want key=value)\n", kv)
					return nil
				}
				keys = append(keys, []byte(k))
				vals = append(vals, []byte(v))
			}
			br, err := c.MultiPut(keys, vals)
			if err == nil {
				err = br.FirstErr()
			}
			if err != nil {
				return err
			}
			fmt.Printf("ok: %d pairs over shards %v (%v batch span)\n", len(keys), br.Shards, br.Latency())
			return nil
		}},
		command{"mget", "<key> ...", 1, -1, func(a []string) error {
			var keys [][]byte
			for _, k := range a {
				keys = append(keys, []byte(k))
			}
			br, err := c.MultiGet(keys)
			if err != nil {
				return err
			}
			for i, comp := range br.Completions {
				if br.Errs[i] != nil {
					fmt.Printf("  [shard %d] %q: %v\n", br.Shards[i], keys[i], br.Errs[i])
					continue
				}
				fmt.Printf("  [shard %d] %q = %q\n", br.Shards[i], keys[i], comp.Value)
			}
			fmt.Printf("batch span %v\n", br.Latency())
			return nil
		}},
		command{"shard", "<key>", 1, 1, func(a []string) error {
			fmt.Printf("%q -> shard %d of %d\n", a[0], c.ShardFor([]byte(a[0])), c.Shards())
			return nil
		}},
		command{"incr", "<key> [delta]", 1, 2, func(a []string) error {
			delta := int64(1)
			if len(a) == 2 {
				d, err := strconv.ParseInt(a[1], 10, 64)
				if err != nil {
					return errUsage
				}
				delta = d
			}
			v, lat, err := c.Incr([]byte(a[0]), delta)
			shardOf(a[0])
			if err != nil {
				return err
			}
			fmt.Printf("%d  (%v)\n", v, lat)
			return nil
		}},
		command{"append", "<key> <suffix>", 2, 2, func(a []string) error {
			lat, err := c.Append([]byte(a[0]), []byte(a[1]))
			shardOf(a[0])
			return report(fmt, lat, err)
		}},
		command{"cas", "<key> <old|-> <new>   ('-' expects the key absent)", 3, 3, func(a []string) error {
			old := []byte(a[1])
			if a[1] == "-" {
				old = nil
			}
			lat, err := c.CompareAndSwap([]byte(a[0]), old, []byte(a[2]))
			shardOf(a[0])
			if errors.Is(err, anykey.ErrTxnConflict) && !errors.Is(err, anykey.ErrTxnAborted) {
				fmt.Printf("conflict: %v\n", err)
				return nil
			}
			return report(fmt, lat, err)
		}},
		command{"txn", "<key>=<value> | del:<key> ...   (one atomic cross-shard commit)", 1, -1, func(a []string) error {
			var ops []anykey.TxnOp
			for _, f := range a {
				if k, ok := strings.CutPrefix(f, "del:"); ok && k != "" {
					ops = append(ops, anykey.TxnOp{Key: []byte(k), Delete: true})
					continue
				}
				k, v, ok := strings.Cut(f, "=")
				if !ok || k == "" {
					fmt.Printf("malformed op %q (want key=value or del:key)\n", f)
					return nil
				}
				ops = append(ops, anykey.TxnOp{Key: []byte(k), Value: []byte(v)})
			}
			br, err := c.AtomicExec(ops)
			if err != nil {
				return err
			}
			fmt.Printf("committed txn %d: %d ops over shards %v (%v span)\n",
				br.TxnID, len(ops), br.Shards, br.Latency())
			return nil
		}},
		command{"stats", "", 0, -1, func([]string) error {
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
			return nil
		}},
		command{"sync", "", 0, -1, func([]string) error {
			now, err := c.Sync()
			if err != nil {
				return err
			}
			fmt.Printf("ok (fleet flushed, clock %v)\n", now)
			return nil
		}},
		command{"addshard", "", 0, -1, func([]string) error {
			m, err := c.AddShard()
			if err != nil {
				return err
			}
			mig = m
			st := c.Migrating()
			fmt.Printf("migration started: member %d joining, %d source shards to stream ('rebalance' to drain; traffic keeps flowing, reads double-read until commit)\n",
				st.Subject, st.SourcesTotal)
			return nil
		}},
		command{"rmshard", "<id>", 1, 1, func(a []string) error {
			id, err := memberID(a[0])
			if err != nil {
				return err
			}
			m, err := c.RemoveShard(id)
			if err != nil {
				return err
			}
			mig = m
			fmt.Printf("migration started: member %d retiring, streaming its keys to the surviving ring ('rebalance' to drain)\n", c.Migrating().Subject)
			return nil
		}},
		command{"rebalance", "[keys-per-step]", 0, -1, func(a []string) error {
			if mig == nil {
				fmt.Println("no migration in flight (start one with 'addshard' or 'rmshard <id>')")
				return nil
			}
			done, err := true, error(nil)
			if len(a) == 0 {
				err = mig.Run()
			} else if n, ok := count(a[0]); ok && n > 0 {
				done, err = mig.Step(n)
			} else {
				return errUsage
			}
			if err != nil {
				return err
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
			return nil
		}},
		command{"rebalance-status", "", 0, -1, func([]string) error {
			fs, err := c.FleetStats()
			if err != nil {
				return err
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
			return nil
		}},
		command{"kill", "<id> [powercut|grownbad]", 1, 2, func(a []string) error {
			id, err := memberID(a[0])
			if err != nil {
				return err
			}
			cause := anykey.KillPowerCut
			if len(a) == 2 {
				switch a[1] {
				case "powercut":
				case "grownbad":
					cause = anykey.KillGrownBad
				default:
					fmt.Printf("unknown kill cause %q (powercut | grownbad)\n", a[1])
					return nil
				}
			}
			if err := c.KillShard(id, cause); err != nil {
				return err
			}
			fmt.Printf("member %d killed (%v): its data is gone; surviving replicas serve, 'rebuild %d' to replace the hardware\n",
				id, cause, id)
			return nil
		}},
		command{"rebuild", "<id>", 1, 1, func(a []string) error {
			id, err := memberID(a[0])
			if err != nil {
				return err
			}
			rb, err := c.RebuildShard(id)
			if err == nil {
				err = rb.Run()
			}
			if err != nil {
				return err
			}
			_, _, keys := rb.Progress()
			state, _, _ := c.ShardState(id)
			fmt.Printf("member %d rebuilt: %d keys refilled from surviving replicas, state %s, clock %v\n",
				id, keys, state, c.ShardNow(id))
			return nil
		}},
	)
}

// count parses a REPL count argument: a non-negative integer.
func count(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

// traceCmd handles the shell's trace subcommands.
func traceCmd(dev *anykey.Device, fmt *printer, args []string) error {
	switch args[0] {
	case "on":
		tr := dev.StartTrace(anykey.TraceOptions{})
		fmt.Printf("tracing on (%d events retained so far)\n", tr.EventCount())
	case "off":
		tr := dev.StopTrace()
		if tr == nil {
			fmt.Println("tracing was not on")
			return nil
		}
		fmt.Printf("tracing off; %d events discarded (save or blame before 'trace off' to use them)\n", tr.EventCount())
	case "save", "csv":
		if len(args) != 2 {
			fmt.Printf("usage: trace %s <file>\n", args[0])
			return nil
		}
		tr := dev.Trace()
		if tr == nil {
			fmt.Println("tracing is off (run 'trace on' first)")
			return nil
		}
		f, err := os.Create(args[1])
		if err != nil {
			return err
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
			return err
		}
		fmt.Printf("wrote %s (%d events, %d ops)\n", args[1], tr.EventCount(), len(tr.Ops()))
	case "blame":
		tr := dev.Trace()
		if tr == nil {
			fmt.Println("tracing is off (run 'trace on' first)")
			return nil
		}
		pct := 99.0
		if len(args) > 1 {
			p, err := strconv.ParseFloat(args[1], 64)
			if err != nil || p <= 0 || p > 100 {
				fmt.Println("usage: trace blame [percentile in (0,100]]")
				return nil
			}
			pct = p
		}
		fmt.Print(tr.Blame(anykey.BlameOptions{Percentile: pct}).String())
	default:
		fmt.Printf("unknown trace subcommand %q\n", args[0])
	}
	return nil
}

// stormCmd fires an open-loop GET burst at the device: deterministic
// exponential arrivals at the given offered rate for the given virtual-time
// span, submitted through a fresh QD-64 engine's *At path so requests queue
// when the device falls behind. Keys cycle through a small population the
// command writes first; the report counts client-deadline misses and the
// worst end-to-end latency — a hand-held version of the harness's storm
// experiment.
func stormCmd(dev *anykey.Device, fmt *printer, args []string) error {
	rate, err1 := strconv.ParseFloat(args[0], 64)
	ms, err2 := strconv.ParseFloat(args[1], 64)
	timeoutMS := 10.0
	var err3 error
	if len(args) == 3 {
		timeoutMS, err3 = strconv.ParseFloat(args[2], 64)
	}
	if err1 != nil || err2 != nil || err3 != nil || rate <= 0 || ms <= 0 || timeoutMS <= 0 {
		return errUsage
	}
	const population = 256
	for i := 0; i < population; i++ {
		if _, err := dev.Put([]byte(gofmt.Sprintf("storm-%03d", i)), []byte("storm-value")); err != nil {
			fmt.Println("error pre-filling storm keys:", err)
			return nil
		}
	}
	eng, err := dev.NewEngine(64)
	if err != nil {
		return err
	}
	arr, err := workload.NewArrivals(workload.ArrivalSpec{
		Shape: workload.ArrivalConstant, Rate: rate,
	}, 1)
	if err != nil {
		return err
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
			return err
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
	return nil
}

// printer writes REPL output to the configured writer with fmt semantics.
type printer struct{ w io.Writer }

func (p *printer) Print(a ...any)                 { gofmt.Fprint(p.w, a...) }
func (p *printer) Println(a ...any)               { gofmt.Fprintln(p.w, a...) }
func (p *printer) Printf(format string, a ...any) { gofmt.Fprintf(p.w, format, a...) }

// report prints an op's outcome and returns any error but not-found for the
// shell to print.
func report(fmt *printer, lat anykey.Duration, err error) error {
	switch {
	case err == nil:
		fmt.Printf("ok (%v simulated)\n", lat)
	case errors.Is(err, anykey.ErrNotFound):
		fmt.Printf("not found (%v simulated)\n", lat)
	default:
		return err
	}
	return nil
}
