// Command anykeyserver fronts a simulated AnyKey cluster with a real TCP
// server speaking a RESP2 subset (PING, ECHO, GET, SET, DEL, MGET, MSET,
// SCAN, INFO, FLEET), so any Redis client can drive the simulation
// interactively. A wall-clock bridge maps request arrival times onto each
// shard's virtual clock domain, and an HTTP endpoint exposes live
// Prometheus metrics — per-shard throughput, queue depth, GC/compaction
// activity and blame-derived tail-latency attribution — plus /healthz and
// /debug/pprof.
//
// With -replication R every key lives on R ring members and the FLEET
// command is available: FLEET STATUS, FLEET KILL <id> [powercut|grownbad],
// FLEET REBUILD <id>, FLEET RMSHARD <id>. Killing a member mid-traffic
// leaves reads served by surviving replicas and writes acknowledged while
// the quorum holds; REBUILD refills replacement hardware from replica
// scans and RMSHARD streams a member's keys away before it retires.
//
// Usage:
//
//	anykeyserver -addr :6380 -metrics-addr :9121 -shards 4 -replication 2
//	redis-cli -p 6380 SET user:1 alice
//	redis-cli -p 6380 FLEET KILL 1
//	curl -s localhost:9121/metrics | grep anykey_fleet
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// commands drain, the cluster syncs and closes. The process exits nonzero
// when shutdown fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anykey"
	"anykey/internal/server"
)

// cacheOpts maps the -cache-mb flag onto a per-shard cache config.
func cacheOpts(mb int) *anykey.CacheOptions {
	if mb <= 0 {
		return nil
	}
	return &anykey.CacheOptions{CapacityBytes: int64(mb) << 20}
}

func main() {
	design, router := anykey.DesignAnyKeyPlus, anykey.RouteConsistent
	flag.TextVar(&design, "design", design, "device design: pink | anykey | anykey+ | anykey-")
	flag.TextVar(&router, "router", router, "routing policy: consistent | modulo")
	var (
		addr        = flag.String("addr", ":6380", "RESP listen address")
		metricsAddr = flag.String("metrics-addr", ":9121", "HTTP listen address for /metrics, /healthz, /debug/pprof (empty disables)")

		shards      = flag.Int("shards", 4, "member devices in the cluster")
		capacity    = flag.Int("capacity", 64, "capacity per shard in MiB")
		cacheMB     = flag.Int("cache-mb", 0, "host-side DRAM read cache per shard in MiB (0 disables; stats in INFO and /metrics)")
		qd          = flag.Int("qd", 64, "submission queue depth per shard")
		replication = flag.Int("replication", 0, "replicate each key to this many ring members (0 = no replication; enables FLEET commands)")
		wquorum     = flag.Int("wquorum", 0, "alive-replica successes required to ack a write (default -replication, write-all)")

		inflight  = flag.Int("inflight", 128, "per-shard bound on requests admitted and not yet answered (-BUSY beyond it)")
		timeout   = flag.Duration("timeout", 0, "virtual latency budget per op (-TIMEOUT beyond it; 0 = none)")
		timeScale = flag.Float64("time-scale", 1.0, "virtual seconds per wall-clock second")

		drainWait = flag.Duration("drain", 10*time.Second, "shutdown: max wait for connections to drain")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		Cluster: anykey.ClusterOptions{
			Shards:      *shards,
			QueueDepth:  *qd,
			Router:      router,
			Replication: anykey.ReplicationOptions{Factor: *replication, WriteQuorum: *wquorum},
			Device:      anykey.Options{Design: design, CapacityMB: *capacity, Cache: cacheOpts(*cacheMB)},
		},
		Inflight:  *inflight,
		Timeout:   *timeout,
		TimeScale: *timeScale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "anykeyserver:", err)
		os.Exit(1)
	}

	spelling, _ := design.MarshalText() // a parsed design always has one
	fmt.Printf("anykeyserver: %d-shard %s cluster on %s", *shards, spelling, srv.Addr())
	if *replication > 0 {
		fmt.Printf(" (R=%d)", *replication)
	}
	if ma := srv.MetricsAddr(); ma != nil {
		fmt.Printf(", metrics on %s", ma)
	}
	fmt.Println()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case sig := <-sigs:
		fmt.Printf("anykeyserver: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "anykeyserver: shutdown:", err)
			os.Exit(1)
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintln(os.Stderr, "anykeyserver:", err)
			os.Exit(1)
		}
	case err := <-serveErr:
		// The accept loop died without a shutdown — a real failure.
		fmt.Fprintln(os.Stderr, "anykeyserver:", err)
		os.Exit(1)
	}
}
