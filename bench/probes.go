package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"anykey"
	"anykey/internal/cache"
	"anykey/internal/cluster"
	"anykey/internal/cluster/fleet"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/memtable"
	"anykey/internal/metrics"
	"anykey/internal/nand"
	"anykey/internal/payload"
	"anykey/internal/server"
	"anykey/internal/sim"
	"anykey/internal/trace"
	"anykey/internal/txn"
	"anykey/internal/workload"
	"anykey/internal/xxhash"
)

// The ladder: one short fixed-iteration loop per layer over that layer's
// exported functions, with stubs beneath it so that only the layer's own
// cost is timed. Each rung reports ns and allocations per call.

// stubDev is a device.KVSSD that costs nothing: every operation completes
// one simulated microsecond after issue and reads return a fixed value.
type stubDev struct {
	st    *device.Stats
	value []byte
}

func newStubDev() *stubDev {
	st := device.NewStats()
	st.Flash = func() nand.Counters { return nand.Counters{} }
	return &stubDev{st: st, value: make([]byte, 64)}
}

func (d *stubDev) Put(at sim.Time, _, _ []byte) (sim.Time, error) { return at + 1000, nil }
func (d *stubDev) Delete(at sim.Time, _ []byte) (sim.Time, error) { return at + 1000, nil }
func (d *stubDev) Get(at sim.Time, _ []byte) ([]byte, sim.Time, error) {
	return d.value, at + 1000, nil
}
func (d *stubDev) Scan(at sim.Time, _ []byte, _ int) ([]kv.Pair, sim.Time, error) {
	return nil, at + 1000, nil
}
func (d *stubDev) Sync(at sim.Time) (sim.Time, error) { return at + 1000, nil }
func (d *stubDev) Stats() *device.Stats               { return d.st }
func (d *stubDev) Metadata() []device.MetaStructure   { return nil }

func stubDevs(n int) []device.KVSSD {
	devs := make([]device.KVSSD, n)
	for i := range devs {
		devs[i] = newStubDev()
	}
	return devs
}

// stubBackend is a txn.Backend over a map: no shards to wait for, no clock.
type stubBackend struct{ m map[string][]byte }

func (b *stubBackend) Shards() int              { return 4 }
func (b *stubBackend) ShardFor(key []byte) int  { return int(xxhash.Sum32(key) % 4) }
func (b *stubBackend) Now(int) sim.Time         { return 0 }
func (b *stubBackend) Tracer(int) *trace.Tracer { return nil }
func (b *stubBackend) SyncShards([]int) error   { return nil }
func (b *stubBackend) Get(key []byte) ([]byte, bool, error) {
	v, ok := b.m[string(key)]
	return v, ok, nil
}
func (b *stubBackend) Apply(ops []txn.Op) error {
	for _, op := range ops {
		if op.Delete {
			delete(b.m, string(op.Key))
		} else {
			b.m[string(op.Key)] = op.Value
		}
	}
	return nil
}
func (b *stubBackend) ScanShard(int, []byte, int) ([]kv.Pair, error) { return nil, nil }

// stubConn feeds a RESP client canned replies and swallows what it sends.
type stubConn struct {
	net.Conn // nil: only Read, Write and Close are ever called
	reply    []byte
}

func (c *stubConn) Read(p []byte) (int, error)  { return copy(p, c.reply), nil }
func (c *stubConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *stubConn) Close() error                { return nil }

var probeSink int // keeps probe results alive

// timeProbe runs fn iters times and reports ns and heap allocations per call.
func timeProbe(iters int, fn func(i int)) (ns, allocs float64) {
	fn(0) // grow scratch and warm caches outside the timed loop
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

func probeKeys(n int) [][]byte {
	spec := mustSpec("ZippyDB")
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.Key(spec, uint64(i))
	}
	return keys
}

// runProbes climbs the ladder and writes <rung>_ns and <rung>_allocs.
func runProbes(layer map[string]float64, smoke bool) {
	scale := 1
	if smoke {
		scale = 50
	}
	emit := func(name string, iters int, fn func(i int)) {
		ns, allocs := timeProbe(max(2, iters/scale), fn)
		layer[name+"_ns"], layer[name+"_allocs"] = ns, allocs
	}
	spec := mustSpec("ZippyDB")
	keys := probeKeys(4096)
	val := workload.Value(spec, 1, 0)
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: probe set-up: %v", err))
		}
	}

	gen, err := workload.NewGenerator(spec, workload.DefaultConfig(100_000))
	must(err)
	emit("workload.next", 200_000, func(int) { probeSink += int(gen.Next().ID) })

	buf4k := make([]byte, 4096)
	emit("payload.fill_4k", 20_000, func(i int) { payload.Fill(buf4k, uint64(i)) })

	ent := kv.Entity{Key: keys[0], Hash: xxhash.Sum32(keys[0]), Value: val}
	var enc []byte
	var dec kv.Entity
	emit("kv.entity_codec", 200_000, func(int) {
		enc = kv.AppendEntity(enc[:0], &ent)
		n, err := kv.DecodeEntityInto(&dec, enc)
		must(err)
		probeSink += n
	})

	mt := memtable.New(1)
	emit("memtable.put", 100_000, func(i int) { mt.Put(keys[i%len(keys)], val) })
	emit("memtable.get", 200_000, func(i int) {
		if _, ok := mt.Get(keys[i%len(keys)]); ok {
			probeSink++
		}
	})

	var tl sim.Timeline
	emit("sim.timeline_schedule", 200_000, func(i int) {
		at := sim.Time(i) * 50_000
		tl.Schedule(at, 60_000)
		if i%64 == 0 {
			tl.Prune(at)
		}
	})

	probeNand(emit, spec)

	cfg := core.Config{Plus: true, Seed: 1}
	cfg.Defaults()
	cd, err := core.New(cfg)
	must(err)
	var now sim.Time
	for i := range keys {
		now, err = cd.Put(now, keys[i], val)
		must(err)
	}
	now, err = cd.Sync(now)
	must(err)
	emit("core.get", 50_000, func(i int) {
		v, t, err := cd.Get(now, keys[i%len(keys)])
		must(err)
		now, probeSink = t, probeSink+len(v)
	})
	emit("core.put", 50_000, func(i int) {
		t, err := cd.Put(now, keys[i%len(keys)], val)
		must(err)
		now = t
	})

	pd, err := anykey.Open(anykey.Options{Design: anykey.DesignPinK, CapacityMB: 32})
	must(err)
	for i := range keys {
		_, err = pd.Put(keys[i], val)
		must(err)
	}
	_, err = pd.Sync()
	must(err)
	emit("pink.get", 50_000, func(i int) {
		v, _, err := pd.Get(keys[i%len(keys)])
		must(err)
		probeSink += len(v)
	})
	emit("pink.put", 50_000, func(i int) {
		_, err := pd.Put(keys[i%len(keys)], val)
		must(err)
	})
	pd.Close()

	ch := cache.Wrap(newStubDev(), cache.Config{AdmitAfter: 1})
	_, _, err = ch.Get(0, keys[0]) // the miss that admits the key
	must(err)
	emit("cache.hit", 500_000, func(int) {
		v, _, _ := ch.Get(0, keys[0])
		probeSink += len(v)
	})

	eng, err := host.New(newStubDev(), 64)
	must(err)
	emit("host.submit", 500_000, func(i int) {
		c, _ := eng.Get(keys[i%len(keys)])
		probeSink += c.Slot
	})

	batch := keys[:batchSize]
	for _, workers := range []int{1, drivers()} {
		cl, err := cluster.New(stubDevs(4), cluster.Config{QueueDepth: 64, Workers: workers})
		must(err)
		name := "cluster.multiget64"
		if workers == 1 {
			emit("cluster.route", 500_000, func(i int) { probeSink += cl.ShardFor(keys[i%len(keys)]) })
		} else {
			name += "_workers"
		}
		emit(name, 5_000, func(int) {
			br, err := cl.MultiGet(batch)
			must(err)
			probeSink += len(br.Completions)
		})
	}

	fl, err := fleet.New(stubDevs(4), fleet.Config{QueueDepth: 64,
		Repl: fleet.Replication{Factor: 2, WriteQuorum: 2},
		NewDevice: func(int) (device.KVSSD, *trace.Tracer, error) {
			return newStubDev(), nil, nil
		}})
	must(err)
	emit("fleet.put_r2", 100_000, func(i int) { must(fl.Put(keys[i%len(keys)], val).Err) })
	emit("fleet.get_r2", 100_000, func(i int) { must(fl.Get(keys[i%len(keys)]).Err) })

	var topts txn.Options
	must(topts.Validate())
	co := txn.New(&stubBackend{m: map[string][]byte{}}, topts)
	emit("txn.incr", 50_000, func(i int) {
		_, _, err := co.Incr(keys[i%1024], 1)
		must(err)
	})
	ops := make([]txn.Op, 16)
	for i := range ops {
		ops[i] = txn.Op{Key: keys[2048+i], Value: val}
	}
	emit("txn.atomic16", 5_000, func(int) {
		_, err := co.Atomic(ops)
		must(err)
	})
	one := keys[3000:3001]
	emit("txn.rawwrite", 200_000, func(int) { must(co.RawWrite(one, func() error { return nil })) })

	tr := trace.New(trace.Config{})
	track := trace.MakeTrack(trace.TrackChip, 3)
	emit("trace.span", 1_000_000, func(i int) {
		at := sim.Time(i)
		tr.Span(track, trace.EvProgram, trace.CauseFlush, at, at, at+10, 0)
	})
	probeBlame(emit, keys, val, smoke)

	cli := server.NewClient(&stubConn{reply: []byte("+OK\r\n")})
	set := [][]byte{[]byte("SET"), keys[0], val}
	emit("server.client_codec", 200_000, func(int) {
		rp, err := cli.DoBytes(set)
		must(err)
		probeSink += len(rp.Str)
	})

	probePing(emit, must)

	reg := metrics.NewRegistry()
	vec := reg.NewCounterVec("probe_ops_total", "Probe series.", "shard", "op")
	hist := reg.NewHistogramVec("probe_latency_seconds", "Probe histogram.", metrics.ExpBuckets(1e-6, 2, 24), "shard")
	for s := 0; s < 4; s++ {
		for _, op := range []string{"get", "set", "del", "scan"} {
			vec.With(strconv.Itoa(s), op).Inc()
		}
		hist.With(strconv.Itoa(s)).Observe(1e-4)
	}
	emit("metrics.scrape", 2_000, func(int) { must(reg.WriteText(io.Discard)) })
}

// probeNand times the flash array alone: reads of programmed pages and
// programs under both payload stores. Page images are real group pages of
// workload entities, which is what the flyweight store parses.
func probeNand(emit func(string, int, func(int)), spec workload.Spec) {
	geo := nand.Geometry{Channels: 8, ChipsPerChannel: 8, BlocksPerChip: 2, PagesPerBlock: 64, PageSize: pageSize}
	image := func(seed uint64) []byte {
		img := make([]byte, pageSize)
		w := kv.NewPageWriter(img, nil)
		for id := seed * 1000; ; id++ {
			k := workload.Key(spec, id)
			e := kv.Entity{Key: k, Hash: xxhash.Sum32(k), Value: workload.Value(spec, id, 0)}
			if !w.AppendEntity(&e) {
				break
			}
		}
		w.Seal()
		return img
	}
	for _, mode := range []nand.MemoryMode{nand.MemoryRaw, nand.MemoryFlyweight} {
		arr, err := nand.New(geo, nand.TLCTiming())
		if err != nil {
			panic(err)
		}
		arr.ConfigureMemory(mode)
		imgs := make([][]byte, 64)
		for i := range imgs {
			imgs[i] = image(uint64(i)) // built after ConfigureMemory: Value notes payloads once a flyweight store exists
		}
		var at sim.Time
		next := 0
		name := "nand.program"
		if mode == nand.MemoryFlyweight {
			name += "_flyweight"
		}
		// Pages are programmed in order inside a block and blocks are
		// striped over chips, so walk block by block.
		emit(name, geo.Pages()/2, func(int) {
			ppa := arr.PageOf(nand.BlockID(next/geo.PagesPerBlock), next%geo.PagesPerBlock)
			done, err := arr.Program(at, ppa, imgs[next%len(imgs)], nand.CauseFlush)
			if err != nil {
				panic(err)
			}
			at, next = done, next+1
		})
		if mode == nand.MemoryRaw {
			emit("nand.read", 200_000, func(i int) {
				ppa := arr.PageOf(nand.BlockID((i%next)/geo.PagesPerBlock), (i%next)%geo.PagesPerBlock)
				at = arr.Read(at, ppa, nand.CauseUser)
			})
		}
	}
}

// probeBlame times one Blame(P99, MaxOps 1) — what the server's shard loop
// runs every 256 ops — on default-sized rings filled by real device traffic.
func probeBlame(emit func(string, int, func(int)), keys [][]byte, val []byte, smoke bool) {
	dev, err := anykey.Open(anykey.Options{CapacityMB: 32, Trace: &anykey.TraceOptions{}})
	if err != nil {
		panic(err)
	}
	defer dev.Close()
	fill := 1 << 17 // twice the default op ring
	if smoke {
		fill = 1 << 13
	}
	for i := 0; i < fill; i++ {
		k := keys[i%len(keys)]
		if i < len(keys) || i%4 == 0 {
			_, err = dev.Put(k, val)
		} else {
			_, _, err = dev.Get(k)
		}
		if err != nil {
			panic(err)
		}
	}
	tr := dev.Trace()
	emit("trace.blame_full_ring", 20, func(int) {
		probeSink += tr.Blame(anykey.BlameOptions{Percentile: 99, MaxOps: 1}).BlamedOps
	})
}

// probePing measures a PING round trip against an in-process server over
// loopback TCP: socket, RESP and dispatch, with no storage operation.
func probePing(emit func(string, int, func(int)), must func(error)) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0",
		Cluster: anykey.ClusterOptions{Shards: 1, Device: anykey.Options{CapacityMB: 32}}})
	must(err)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	cli, err := server.Dial(srv.Addr().String(), 5*time.Second)
	must(err)
	emit("server.ping_rtt", 20_000, func(int) {
		rp, err := cli.Do("PING")
		must(err)
		probeSink += len(rp.Str)
	})
	cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	must(srv.Shutdown(ctx))
	must(<-served)
}
