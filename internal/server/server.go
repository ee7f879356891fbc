package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anykey"
	"anykey/internal/metrics"
	"anykey/internal/trace"
)

// Config configures an anykeyserver instance.
type Config struct {
	// Addr is the TCP listen address for the RESP endpoint (e.g. ":6380";
	// ":0" picks a free port — read it back with Server.Addr).
	Addr string
	// MetricsAddr is the HTTP listen address for /metrics, /healthz and
	// /debug/pprof. Empty disables the HTTP endpoint.
	MetricsAddr string

	// Cluster configures the simulated fleet behind the server. Tracing is
	// enabled automatically when Cluster.Device.Trace is nil — the blame
	// gauges need per-shard tracers.
	Cluster anykey.ClusterOptions

	// Inflight bounds each shard's admitted-but-unanswered requests: one
	// arriving beyond it is shed with a RESP -BUSY (default 128).
	Inflight int
	// Timeout is the virtual latency budget per operation: completions
	// slower than this in simulated time answer -TIMEOUT (default 0 = no
	// budget).
	Timeout time.Duration
	// TimeScale maps wall-clock seconds to virtual seconds (default 1.0;
	// 10 means one real second ages each shard's clock ten virtual
	// seconds).
	TimeScale float64
}

func (c *Config) normalize() error {
	if c.Addr == "" {
		c.Addr = ":6380"
	}
	if c.Inflight == 0 {
		c.Inflight = 128
	}
	if c.Inflight < 0 {
		return fmt.Errorf("%w: Inflight %d is negative", anykey.ErrInvalidOptions, c.Inflight)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("%w: Timeout %v is negative", anykey.ErrInvalidOptions, c.Timeout)
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1.0
	}
	if c.TimeScale < 0 {
		return fmt.Errorf("%w: TimeScale %v is negative", anykey.ErrInvalidOptions, c.TimeScale)
	}
	if c.Cluster.Device.Trace == nil {
		c.Cluster.Device.Trace = &anykey.TraceOptions{}
	}
	return nil
}

// serverMetrics is every series the /metrics endpoint exports. The
// anykeyserver_* families are updated on the request path; the anykey_*
// families — cluster statistics and the tail-blame gauges — are computed by
// an OnScrape hook, so the request path pays nothing for them.
type serverMetrics struct {
	connections      *metrics.Gauge
	connectionsTotal *metrics.Counter

	ops       *metrics.CounterVec   // {shard,op}
	opErrors  *metrics.CounterVec   // {shard}
	shed      *metrics.CounterVec   // {shard}
	timeouts  *metrics.CounterVec   // {shard}
	inflight  *metrics.GaugeVec     // {shard}
	latency   *metrics.HistogramVec // {shard} virtual seconds
	queueWait *metrics.HistogramVec // {shard} virtual seconds

	blame          *metrics.GaugeVec // {shard,cause}
	blameThreshold *metrics.GaugeVec // {shard}

	// shardStats[i] sets shardSeries[i] for one shard label.
	shardStats []func(shard string, v float64)

	storeLogical  *metrics.Gauge
	storeResident *metrics.Gauge

	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	cacheAdmitted *metrics.Counter
	cacheEvicted  *metrics.Counter
	cacheBytes    *metrics.Gauge

	txnCommits     *metrics.Counter
	txnAborts      *metrics.Counter
	txnRetries     *metrics.Counter
	txnSplitMerges *metrics.Counter
}

// shardSeries is every per-shard cluster-state family: its exported name and
// type and the ShardStats field it mirrors, named once. Registration
// (newServerMetrics) and the scrape-time refresh both walk this table.
var shardSeries = []struct {
	name, help string
	gauge      bool // false: a counter
	get        func(*anykey.ShardStats) float64
}{
	{"anykey_shard_clock_seconds", "The shard's virtual clock.", true, func(ss *anykey.ShardStats) float64 { return float64(ss.Now) / 1e9 }},
	{"anykey_shard_ops_total", "Requests carried by the shard engine.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.Ops) }},
	{"anykey_live_keys", "Live keys on the shard.", true, func(ss *anykey.ShardStats) float64 { return float64(ss.LiveKeys) }},
	{"anykey_live_bytes", "Live value bytes on the shard.", true, func(ss *anykey.ShardStats) float64 { return float64(ss.LiveBytes) }},
	{"anykey_flash_reads_total", "Flash page reads, all causes.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.Flash.TotalReads()) }},
	{"anykey_flash_writes_total", "Flash page writes, all causes.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.Flash.TotalWrites()) }},
	{"anykey_flash_erases_total", "Flash block erases.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.Flash.Erases) }},
	{"anykey_tree_compactions_total", "LSM tree compactions.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.TreeCompactions) }},
	{"anykey_log_compactions_total", "Value-log compactions.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.LogCompactions) }},
	{"anykey_chained_compactions_total", "Chained compactions.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.ChainedCompactions) }},
	{"anykey_gc_runs_total", "Garbage-collection runs.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.GCRuns) }},
	{"anykey_gc_relocations_total", "Pages relocated by GC.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.GCRelocations) }},
	{"anykey_syncs_total", "Device FLUSH commands received.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.Syncs) }},
	{"anykey_journal_pages_total", "Write-buffer journal pages programmed by syncs.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.JournalPages) }},
	{"anykey_journal_checkpoints_total", "Syncs that found the journal at its bound and rewrote it from the write buffer.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.JournalCheckpoints) }},
	{"anykey_sync_flushes_total", "Syncs that found the journal at its bound and the write buffer too large to checkpoint, and flushed it instead.", false, func(ss *anykey.ShardStats) float64 { return float64(ss.SyncFlushes) }},
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	latBuckets := metrics.ExpBuckets(1e-6, 2, 24) // 1µs … ~8s of virtual time
	shardStats := make([]func(string, float64), len(shardSeries))
	for i, d := range shardSeries {
		if d.gauge {
			v := r.NewGaugeVec(d.name, d.help, "shard")
			shardStats[i] = func(shard string, x float64) { v.With(shard).Set(x) }
		} else {
			v := r.NewCounterVec(d.name, d.help, "shard")
			shardStats[i] = func(shard string, x float64) { v.With(shard).Set(x) }
		}
	}
	return &serverMetrics{
		shardStats: shardStats,

		connections:      r.NewGauge("anykeyserver_connections", "Open client connections."),
		connectionsTotal: r.NewCounter("anykeyserver_connections_total", "Client connections accepted."),

		ops:       r.NewCounterVec("anykeyserver_ops_total", "Completed storage operations by shard and kind.", "shard", "op"),
		opErrors:  r.NewCounterVec("anykeyserver_op_errors_total", "Storage operations that failed.", "shard"),
		shed:      r.NewCounterVec("anykeyserver_shed_total", "Requests shed with -BUSY because the shard already held its inflight bound.", "shard"),
		timeouts:  r.NewCounterVec("anykeyserver_timeouts_total", "Completions over the virtual latency budget.", "shard"),
		inflight:  r.NewGaugeVec("anykeyserver_inflight", "Requests admitted to the shard and not yet answered (bounded by -inflight).", "shard"),
		latency:   r.NewHistogramVec("anykeyserver_latency_seconds", "End-to-end virtual latency (arrival to done).", latBuckets, "shard"),
		queueWait: r.NewHistogramVec("anykeyserver_queue_wait_seconds", "Virtual time spent waiting for a submission slot.", latBuckets, "shard"),

		blame:          r.NewGaugeVec("anykey_tail_blame_seconds", "Tail-latency blame by cause over the slowest percentile of traced ops.", "shard", "cause"),
		blameThreshold: r.NewGaugeVec("anykey_tail_blame_threshold_seconds", "Latency at the blame percentile cut.", "shard"),

		storeLogical:  r.NewGauge("anykey_store_logical_bytes", "Programmed page bytes a raw payload store would retain, all shards."),
		storeResident: r.NewGauge("anykey_store_resident_bytes", "Host bytes the payload stores actually retain, all shards."),

		cacheHits:     r.NewCounter("anykey_cache_hits_total", "Host-cache read hits, all shards."),
		cacheMisses:   r.NewCounter("anykey_cache_misses_total", "Host-cache read misses, all shards."),
		cacheAdmitted: r.NewCounter("anykey_cache_admitted_total", "Values admitted into the host caches."),
		cacheEvicted:  r.NewCounter("anykey_cache_evicted_total", "Values evicted from the host caches."),
		cacheBytes:    r.NewGauge("anykey_cache_bytes", "Bytes resident across the host caches."),

		txnCommits:     r.NewCounter("anykey_txn_commits_total", "Committed transactions (closures, RMW primitives and atomic batches)."),
		txnAborts:      r.NewCounter("anykey_txn_aborts_total", "Transactions abandoned after exhausting the retry budget."),
		txnRetries:     r.NewCounter("anykey_txn_retries_total", "Transaction attempts re-run after a validation conflict."),
		txnSplitMerges: r.NewCounter("anykey_txn_split_merges_total", "Hot-key split phases merged back into the keyspace."),
	}
}

// registerHeapGauge exports the process's live heap, read at scrape time.
func registerHeapGauge(r *metrics.Registry) {
	r.NewGaugeFunc("anykey_heap_bytes", "Live heap bytes of the server process (runtime HeapAlloc).", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
}

// fleetMetrics is the replication/migration/rebuild family, registered only
// when the cluster runs with Replication.Factor > 0. The counters mirror
// the fleet's monotone tallies on every scrape.
type fleetMetrics struct {
	up *metrics.GaugeVec // {shard} 1 = alive, 0 = dead/rebuilding/retired

	epoch           *metrics.Gauge
	migrationActive *metrics.Gauge
	ringMembers     *metrics.Gauge
	deadMembers     *metrics.Gauge

	quorumFailures *metrics.Counter
	readFallbacks  *metrics.Counter
	readRepairs    *metrics.Counter
	migratedKeys   *metrics.Counter
	migratedBytes  *metrics.Counter
	cleanupDeletes *metrics.Counter
	rebuilds       *metrics.Counter
	rebuiltKeys    *metrics.Counter
}

func newFleetMetrics(r *metrics.Registry) *fleetMetrics {
	return &fleetMetrics{
		up: r.NewGaugeVec("anykey_shard_up", "1 while the member serves (alive), 0 while dead, rebuilding or retired.", "shard"),

		epoch:           r.NewGauge("anykey_fleet_epoch", "Committed topology-migration epochs."),
		migrationActive: r.NewGauge("anykey_fleet_migration_active", "1 while a topology change is streaming keys."),
		ringMembers:     r.NewGauge("anykey_fleet_ring_members", "Members on the committed ring."),
		deadMembers:     r.NewGauge("anykey_fleet_dead_members", "Members currently dead."),

		quorumFailures: r.NewCounter("anykey_fleet_quorum_failures_total", "Writes acknowledged by fewer than WriteQuorum alive replicas."),
		readFallbacks:  r.NewCounter("anykey_fleet_read_fallbacks_total", "Reads served by an owner past the first alive one tried."),
		readRepairs:    r.NewCounter("anykey_fleet_read_repairs_total", "Divergent replicas re-written by read-repair reads."),
		migratedKeys:   r.NewCounter("anykey_fleet_migrated_keys_total", "Keys streamed by topology migrations."),
		migratedBytes:  r.NewCounter("anykey_fleet_migrated_bytes_total", "Bytes streamed by topology migrations."),
		cleanupDeletes: r.NewCounter("anykey_fleet_cleanup_deletes_total", "Stale copies deleted off ex-owners at epoch commits."),
		rebuilds:       r.NewCounter("anykey_fleet_rebuilds_total", "Completed device rebuilds."),
		rebuiltKeys:    r.NewCounter("anykey_fleet_rebuilt_keys_total", "Keys re-filled onto replacement hardware."),
	}
}

// touchShard pre-registers every per-shard series so a scrape taken before
// traffic still shows each shard at zero.
func (m *serverMetrics) touchShard(s int) {
	sh := strconv.Itoa(s)
	for _, op := range opNames {
		m.ops.With(sh, op)
	}
	m.opErrors.With(sh)
	m.shed.With(sh)
	m.timeouts.With(sh)
	m.latency.With(sh)
	m.queueWait.With(sh)
	m.blameThreshold.With(sh)
	for c := trace.Cause(0); c < trace.NumCauses; c++ {
		m.blame.With(sh, c.String())
	}
}

// Server is a running anykeyserver: a RESP front end, its bridge, and the
// metrics endpoint.
type Server struct {
	cfg  Config
	cl   *anykey.Cluster
	br   *Bridge
	reg  *metrics.Registry
	met  *serverMetrics
	fmet *fleetMetrics // nil unless the cluster replicates

	ln  net.Listener
	mln net.Listener
	hs  *http.Server

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	connWG   sync.WaitGroup
	draining atomic.Bool
	started  time.Time

	shutdownOnce sync.Once
	shutdownErr  error

	// closeCluster closes the cluster at the end of Shutdown. It defaults
	// to the cluster's own Close; tests inject failures through it.
	closeCluster func() error
}

// New opens the cluster, anchors the bridge's clock mapping and binds both
// listeners. It starts no goroutine; the server accepts no connections until
// Serve runs.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cl, err := anykey.OpenCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	met := newServerMetrics(reg)
	registerHeapGauge(reg)
	s := &Server{
		cfg:          cfg,
		cl:           cl,
		reg:          reg,
		met:          met,
		conns:        map[net.Conn]struct{}{},
		started:      time.Now(),
		closeCluster: cl.Close,
	}
	for i := 0; i < cl.Shards(); i++ {
		met.touchShard(i)
	}
	if cl.Replication().Factor > 0 {
		s.fmet = newFleetMetrics(reg)
		for i := 0; i < cl.Shards(); i++ {
			s.fmet.up.With(strconv.Itoa(i)).Set(1)
		}
	}
	reg.OnScrape(s.refreshClusterMetrics)
	s.br = newBridge(cl, cfg.TimeScale, anykey.Duration(cfg.Timeout.Nanoseconds()),
		cfg.Inflight, met)

	s.ln, err = net.Listen("tcp", cfg.Addr)
	if err != nil {
		cl.Close()
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		s.mln, err = net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			s.ln.Close()
			cl.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			if s.draining.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ok\n"))
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.hs = &http.Server{Handler: mux}
	}
	return s, nil
}

// Addr returns the bound RESP listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MetricsAddr returns the bound HTTP listen address, nil when disabled.
func (s *Server) MetricsAddr() net.Addr {
	if s.mln == nil {
		return nil
	}
	return s.mln.Addr()
}

// Registry returns the server's metrics registry (for embedding tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// refreshClusterMetrics mirrors a cluster stats snapshot into the anykey_*
// families and recomputes each shard's tail blame. It runs on every scrape,
// taking one shard's lock at a time; the blame is the longer hold (a couple
// of milliseconds on full rings, see Cluster.ShardBlame).
func (s *Server) refreshClusterMetrics() {
	st := s.cl.Stats()
	for _, ss := range st.PerShard {
		sh := strconv.Itoa(ss.Shard)
		s.scrapeBlame(ss.Shard, sh)
		for i, d := range shardSeries {
			s.met.shardStats[i](sh, d.get(&ss))
		}
	}
	s.met.storeLogical.Set(float64(st.Store.LogicalBytes))
	s.met.storeResident.Set(float64(st.Store.ResidentBytes))
	if cs := st.Cache; cs != nil {
		s.met.cacheHits.Set(float64(cs.Hits))
		s.met.cacheMisses.Set(float64(cs.Misses))
		s.met.cacheAdmitted.Set(float64(cs.Admitted))
		s.met.cacheEvicted.Set(float64(cs.Evicted))
		s.met.cacheBytes.Set(float64(cs.Bytes))
	}
	ts := s.cl.TxnStats()
	s.met.txnCommits.Set(float64(ts.Commits))
	s.met.txnAborts.Set(float64(ts.Aborts))
	s.met.txnRetries.Set(float64(ts.Retries))
	s.met.txnSplitMerges.Set(float64(ts.SplitMerges))
	if s.fmet == nil {
		return
	}
	fs, err := s.cl.FleetStats()
	if err != nil {
		return
	}
	for _, m := range fs.PerShard {
		var up float64
		if m.State == "alive" {
			up = 1
		}
		s.fmet.up.With(strconv.Itoa(m.Shard)).Set(up)
	}
	s.fmet.epoch.Set(float64(fs.Repl.Epoch))
	s.fmet.migrationActive.Set(b2f(fs.Repl.MigrationActive))
	s.fmet.ringMembers.Set(float64(fs.Repl.RingMembers))
	s.fmet.deadMembers.Set(float64(fs.Repl.DeadMembers))
	s.fmet.quorumFailures.Set(float64(fs.Repl.QuorumFailures))
	s.fmet.readFallbacks.Set(float64(fs.Repl.ReadFallbacks))
	s.fmet.readRepairs.Set(float64(fs.Repl.ReadRepairs))
	s.fmet.migratedKeys.Set(float64(fs.Repl.MigratedKeys))
	s.fmet.migratedBytes.Set(float64(fs.Repl.MigratedBytes))
	s.fmet.cleanupDeletes.Set(float64(fs.Repl.CleanupDeletes))
	s.fmet.rebuilds.Set(float64(fs.Repl.Rebuilds))
	s.fmet.rebuiltKeys.Set(float64(fs.Repl.RebuiltKeys))
}

// scrapeBlame publishes shard's tail-latency attribution. A shard with no
// report to give — it is dead — shows zeros, not what it last published.
func (s *Server) scrapeBlame(shard int, label string) {
	rep := s.cl.ShardBlame(shard, anykey.BlameOptions{Percentile: 99, MaxOps: 1})
	if rep == nil {
		rep = &anykey.BlameReport{}
	}
	s.met.blameThreshold.With(label).Set(rep.Threshold.Seconds())
	for c := trace.Cause(0); c < trace.NumCauses; c++ {
		s.met.blame.With(label, c.String()).Set(rep.Summary[c].Seconds())
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Serve runs the HTTP endpoint (if configured) and the RESP accept loop.
// It blocks until Shutdown closes the listener, then returns nil; any
// other accept failure is returned as-is.
func (s *Server) Serve() error {
	if s.hs != nil {
		go s.hs.Serve(s.mln)
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		s.met.connections.Add(1)
		s.met.connectionsTotal.Inc()
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.connections.Add(-1)
		s.connWG.Done()
	}()
	r := newRespReader(conn)
	w := newRespWriter(conn)
	cs := &connState{}
	for {
		args, err := r.ReadCommand()
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				w.WriteError("ERR " + err.Error())
				w.Flush()
			}
			return
		}
		closing := s.dispatch(w, args, cs)
		// Pipelining: flush only when the client has no further command
		// already buffered, so a burst of N commands costs one write.
		if r.buffered() == 0 || closing {
			if err := w.Flush(); err != nil {
				return
			}
		}
		if closing {
			return
		}
	}
}

// connState is the per-connection command state: an open MULTI block queues
// write operations until EXEC commits them as one atomic cross-shard batch.
type connState struct {
	multi    bool
	queue    []anykey.TxnOp
	multiErr bool // a queue-time error poisons the block: EXEC answers -EXECABORT
}

// dispatch executes one command and writes its reply (unflushed). It
// returns true when the connection should close.
func (s *Server) dispatch(w *respWriter, args [][]byte, cs *connState) bool {
	cmd := strings.ToUpper(string(args[0]))
	if cs.multi {
		switch cmd {
		case "EXEC", "DISCARD", "QUIT":
			// Resolved by the main switch below.
		case "MULTI":
			w.WriteError("ERR MULTI calls can not be nested")
			return false
		case "SET":
			if len(args) != 3 {
				cs.multiErr = true
				w.WriteError("ERR wrong number of arguments for 'set' command")
				return false
			}
			cs.queue = append(cs.queue, anykey.TxnOp{
				Key:   append([]byte(nil), args[1]...),
				Value: append([]byte(nil), args[2]...),
			})
			w.WriteSimple("QUEUED")
			return false
		case "DEL":
			if len(args) < 2 {
				cs.multiErr = true
				w.WriteError("ERR wrong number of arguments for 'del' command")
				return false
			}
			for _, k := range args[1:] {
				cs.queue = append(cs.queue, anykey.TxnOp{
					Key:    append([]byte(nil), k...),
					Delete: true,
				})
			}
			w.WriteSimple("QUEUED")
			return false
		default:
			// The atomic batch is put/delete-shaped; anything else cannot
			// queue. The poisoned block aborts at EXEC, like Redis.
			cs.multiErr = true
			w.WriteError("ERR command '" + sanitizeLine(string(args[0])) + "' not allowed in MULTI (only SET and DEL queue)")
			return false
		}
	}
	switch cmd {
	case "PING":
		if len(args) > 2 {
			w.WriteError("ERR wrong number of arguments for 'ping' command")
			return false
		}
		if len(args) == 2 {
			w.WriteBulk(args[1])
		} else {
			w.WriteSimple("PONG")
		}
	case "ECHO":
		if len(args) != 2 {
			w.WriteError("ERR wrong number of arguments for 'echo' command")
			return false
		}
		w.WriteBulk(args[1])
	case "COMMAND":
		// redis-cli probes COMMAND DOCS on connect; an empty array keeps it
		// happy without implementing the catalogue.
		w.WriteArrayHeader(0)
	case "QUIT":
		w.WriteSimple("OK")
		return true
	case "INFO":
		w.WriteBulk([]byte(s.info()))
	case "SET":
		if len(args) != 3 {
			w.WriteError("ERR wrong number of arguments for 'set' command")
			return false
		}
		resps, errReply := s.doRawWrite([]*request{{op: opSet, key: args[1], value: args[2]}})
		switch {
		case errReply != "":
			w.WriteError(errReply)
		case resps[0].timedOut:
			w.WriteError("TIMEOUT virtual latency budget exceeded")
		default:
			w.WriteSimple("OK")
		}
	case "GET":
		if len(args) != 2 {
			w.WriteError("ERR wrong number of arguments for 'get' command")
			return false
		}
		resps, errReply := s.doStorage([]*request{{op: opGet, key: args[1]}})
		switch {
		case errReply != "":
			w.WriteError(errReply)
		case resps[0].timedOut:
			w.WriteError("TIMEOUT virtual latency budget exceeded")
		case resps[0].found:
			w.WriteBulk(resps[0].value)
		default:
			w.WriteBulk(nil)
		}
	case "DEL":
		if len(args) < 2 {
			w.WriteError("ERR wrong number of arguments for 'del' command")
			return false
		}
		reqs := make([]*request, 0, len(args)-1)
		for _, k := range args[1:] {
			reqs = append(reqs, &request{op: opDel, key: k})
		}
		resps, errReply := s.doRawWrite(reqs)
		if errReply != "" {
			w.WriteError(errReply)
			return false
		}
		// The device acknowledges deletes of absent keys, so DEL counts
		// acknowledged deletions, not prior existence.
		n := int64(0)
		for _, rp := range resps {
			if !rp.timedOut {
				n++
			}
		}
		w.WriteInt(n)
	case "MGET":
		if len(args) < 2 {
			w.WriteError("ERR wrong number of arguments for 'mget' command")
			return false
		}
		reqs := make([]*request, 0, len(args)-1)
		for _, k := range args[1:] {
			reqs = append(reqs, &request{op: opGet, key: k})
		}
		resps, errReply := s.doStorage(reqs)
		if errReply != "" {
			w.WriteError(errReply)
			return false
		}
		w.WriteArrayHeader(len(resps))
		for _, rp := range resps {
			if rp.found && !rp.timedOut {
				w.WriteBulk(rp.value)
			} else {
				w.WriteBulk(nil)
			}
		}
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			w.WriteError("ERR wrong number of arguments for 'mset' command")
			return false
		}
		reqs := make([]*request, 0, (len(args)-1)/2)
		for i := 1; i < len(args); i += 2 {
			reqs = append(reqs, &request{op: opSet, key: args[i], value: args[i+1]})
		}
		resps, errReply := s.doRawWrite(reqs)
		switch {
		case errReply != "":
			w.WriteError(errReply)
		case slices.ContainsFunc(resps, func(rp response) bool { return rp.timedOut }):
			w.WriteError("TIMEOUT virtual latency budget exceeded")
		default:
			w.WriteSimple("OK")
		}
	case "SCAN":
		// SCAN <start-key> <count>: cursor-style range query. The reply is
		// [next-cursor, flat key/value array]; an empty next-cursor means
		// the keyspace is exhausted.
		if len(args) != 3 {
			w.WriteError("ERR wrong number of arguments for 'scan' command")
			return false
		}
		n, err := strconv.Atoi(string(args[2]))
		if err != nil || n <= 0 || n > MaxArray/2 {
			w.WriteError("ERR invalid scan count")
			return false
		}
		s.dispatchScan(w, args[1], n)
	case "INCR", "INCRBY":
		// INCR key | INCRBY key delta: atomic counter add through the OCC
		// layer, with hot keys absorbed by the split phase. The reply is the
		// new value (on a split hot key: the exact phase-local running total).
		delta := int64(1)
		if cmd == "INCRBY" {
			if len(args) != 3 {
				w.WriteError("ERR wrong number of arguments for 'incrby' command")
				return false
			}
			var err error
			delta, err = strconv.ParseInt(string(args[2]), 10, 64)
			if err != nil {
				w.WriteError("ERR value is not an integer or out of range")
				return false
			}
		} else if len(args) != 2 {
			w.WriteError("ERR wrong number of arguments for 'incr' command")
			return false
		}
		v, _, err := s.cl.Incr(args[1], delta)
		if err != nil {
			w.WriteError(txnErrReply(err))
			return false
		}
		w.WriteInt(v)
	case "APPEND":
		if len(args) != 3 {
			w.WriteError("ERR wrong number of arguments for 'append' command")
			return false
		}
		if _, err := s.cl.Append(args[1], args[2]); err != nil {
			w.WriteError(txnErrReply(err))
			return false
		}
		w.WriteSimple("OK")
	case "CAS":
		// CAS key old new: write new iff the current value equals old; an
		// empty old means "expect absent". A mismatch answers -CONFLICT and
		// hands the race back to the client.
		if len(args) != 4 {
			w.WriteError("ERR wrong number of arguments for 'cas' command")
			return false
		}
		if _, err := s.cl.CompareAndSwap(args[1], args[2], args[3]); err != nil {
			w.WriteError(txnErrReply(err))
			return false
		}
		w.WriteSimple("OK")
	case "MULTI":
		cs.multi = true
		cs.queue = cs.queue[:0]
		cs.multiErr = false
		w.WriteSimple("OK")
	case "EXEC":
		if !cs.multi {
			w.WriteError("ERR EXEC without MULTI")
			return false
		}
		ops := cs.queue
		poisoned := cs.multiErr
		cs.multi, cs.queue, cs.multiErr = false, nil, false
		switch {
		case poisoned:
			w.WriteError("EXECABORT Transaction discarded because of previous errors.")
		case len(ops) == 0:
			w.WriteArrayHeader(0)
		default:
			if _, err := s.cl.AtomicExec(ops); err != nil {
				w.WriteError(txnErrReply(err))
				return false
			}
			w.WriteArrayHeader(len(ops))
			for range ops {
				w.WriteSimple("OK")
			}
		}
	case "DISCARD":
		if !cs.multi {
			w.WriteError("ERR DISCARD without MULTI")
			return false
		}
		cs.multi, cs.queue, cs.multiErr = false, nil, false
		w.WriteSimple("OK")
	case "FLEET":
		s.dispatchFleet(w, args)
	default:
		w.WriteError("ERR unknown command '" + sanitizeLine(string(args[0])) + "'")
	}
	return false
}

// dispatchFleet handles FLEET STATUS | KILL <id> [powercut|grownbad] |
// REBUILD <id> | RMSHARD <id>. Topology commands run on the connection
// goroutine like every other command, concurrent with the other
// connections' traffic — the fleet's member and topology locks make that
// safe — so traffic keeps flowing while a rebuild or a removal streams
// keys. AddShard is deliberately not exposed over the wire: the bridge reads
// each member's clock epoch and resolves its series once, at startup, and a
// member born mid-flight would have neither.
func (s *Server) dispatchFleet(w *respWriter, args [][]byte) {
	if s.cl.Replication().Factor == 0 {
		w.WriteError("ERR fleet commands need a replicated cluster (start anykeyserver with -replication)")
		return
	}
	if len(args) < 2 {
		w.WriteError("ERR wrong number of arguments for 'fleet' command")
		return
	}
	memberArg := func() (int, bool) {
		if len(args) < 3 {
			w.WriteError("ERR fleet " + strings.ToLower(string(args[1])) + " needs a member id")
			return 0, false
		}
		id, err := strconv.Atoi(string(args[2]))
		if err != nil {
			w.WriteError("ERR invalid member id " + sanitizeLine(string(args[2])))
			return 0, false
		}
		return id, true
	}
	switch strings.ToUpper(string(args[1])) {
	case "STATUS":
		fs, err := s.cl.FleetStats()
		if err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "factor:%d\r\nwrite_quorum:%d\r\nread_mode:%s\r\n",
			fs.Repl.Factor, fs.Repl.WriteQuorum, fs.Repl.ReadMode)
		fmt.Fprintf(&sb, "epoch:%d\r\nmigration_active:%d\r\nring_members:%d\r\ndead_members:%d\r\n",
			fs.Repl.Epoch, int(b2f(fs.Repl.MigrationActive)), fs.Repl.RingMembers, fs.Repl.DeadMembers)
		fmt.Fprintf(&sb, "quorum_failures:%d\r\nread_fallbacks:%d\r\nread_repairs:%d\r\n",
			fs.Repl.QuorumFailures, fs.Repl.ReadFallbacks, fs.Repl.ReadRepairs)
		fmt.Fprintf(&sb, "migrated_keys:%d\r\nmigrated_bytes:%d\r\ncleanup_deletes:%d\r\n",
			fs.Repl.MigratedKeys, fs.Repl.MigratedBytes, fs.Repl.CleanupDeletes)
		fmt.Fprintf(&sb, "rebuilds:%d\r\nrebuilt_keys:%d\r\n", fs.Repl.Rebuilds, fs.Repl.RebuiltKeys)
		for _, m := range fs.PerShard {
			state := m.State
			if m.Cause != "" {
				state += "(" + m.Cause + ")"
			}
			fmt.Fprintf(&sb, "member%d:%s\r\n", m.Shard, state)
		}
		w.WriteBulk([]byte(sb.String()))
	case "KILL":
		id, ok := memberArg()
		if !ok {
			return
		}
		cause := anykey.KillPowerCut
		if len(args) == 4 {
			switch strings.ToLower(string(args[3])) {
			case "powercut":
				cause = anykey.KillPowerCut
			case "grownbad":
				cause = anykey.KillGrownBad
			default:
				w.WriteError("ERR unknown kill cause " + sanitizeLine(string(args[3])) + " (powercut | grownbad)")
				return
			}
		}
		if err := s.cl.KillShard(id, cause); err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		w.WriteSimple("OK")
	case "REBUILD":
		id, ok := memberArg()
		if !ok {
			return
		}
		rb, err := s.cl.RebuildShard(id)
		if err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		if err := rb.Run(); err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		_, _, keys := rb.Progress()
		w.WriteInt(keys)
	case "RMSHARD":
		id, ok := memberArg()
		if !ok {
			return
		}
		mig, err := s.cl.RemoveShard(id)
		if err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		if err := mig.Run(); err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		fs, err := s.cl.FleetStats()
		if err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		w.WriteInt(fs.Repl.MigratedKeys)
	default:
		w.WriteError("ERR unknown fleet subcommand '" + sanitizeLine(string(args[1])) + "'")
	}
}

// txnErrReply maps a transaction-layer error to its RESP error line: an
// undecided 2PC commit answers -INDOUBT (the client must not assume either
// outcome), retry exhaustion -TXNABORT (it wraps both retry sentinels —
// checked next), a validation or compare failure -CONFLICT, anything else
// -ERR.
func txnErrReply(err error) string {
	switch {
	case errors.Is(err, anykey.ErrTxnInDoubt):
		return "INDOUBT " + err.Error()
	case errors.Is(err, anykey.ErrTxnAborted):
		return "TXNABORT " + err.Error()
	case errors.Is(err, anykey.ErrTxnConflict):
		return "CONFLICT " + err.Error()
	default:
		return "ERR " + err.Error()
	}
}

// doRawWrite runs a raw write batch (SET/DEL/MSET) through the transaction
// layer's write barrier: the cluster merges any split-phase buffer covering
// the keys, holds the coordinator quiesced while this goroutine executes
// the writes, and bumps the keys' OCC versions — so an INCR/CAS/EXEC racing
// a raw write conflicts and retries instead of committing a value derived
// from the pre-write state. Raw reads (GET/MGET/SCAN) take no barrier: they
// cannot lose updates, but they observe shard state directly and may see a
// MULTI/EXEC batch mid-apply — clients that need atomic visibility read
// through the transactional commands.
func (s *Server) doRawWrite(reqs []*request) ([]response, string) {
	keys := make([][]byte, len(reqs))
	for i, r := range reqs {
		keys[i] = r.key
	}
	var resps []response
	var errReply string
	if err := s.cl.RawWrite(keys, func() error {
		resps, errReply = s.doStorage(reqs)
		return nil
	}); err != nil {
		// Only the pre-write split-phase merge can fail here; the writes
		// themselves never ran.
		return resps, "ERR " + err.Error()
	}
	return resps, errReply
}

// doStorage stamps one wall arrival for the batch, admits every request to
// its shard before running any — the shed verdict is taken at the command's
// arrival, with all its keys counted against their shards' bounds at once —
// then runs the admitted ones in order on this goroutine. The second return
// is a non-empty RESP error line when the whole command should fail; a shed
// key fails its command, the keys admitted beside it still run.
func (s *Server) doStorage(reqs []*request) ([]response, string) {
	wall := time.Now()
	anyShed := false
	for _, req := range reqs {
		req.wall = wall
		if req.op != opScan { // a scan names its shard, the rest route by key
			req.shard = s.cl.ShardFor(req.key)
		}
		req.admitted = s.br.admit(req.shard)
		anyShed = anyShed || !req.admitted
	}
	resps := make([]response, len(reqs))
	var firstErr error
	for i, req := range reqs {
		if !req.admitted {
			continue
		}
		resps[i] = s.br.do(req)
		if resps[i].err != nil && firstErr == nil {
			firstErr = resps[i].err
		}
	}
	if anyShed {
		return resps, "BUSY shard queue full, retry"
	}
	if firstErr != nil {
		return resps, "ERR " + firstErr.Error()
	}
	return resps, ""
}

// dispatchScan sends one range query to every shard in turn, merges the
// sorted sub-results and replies [next-cursor, flat pairs].
func (s *Server) dispatchScan(w *respWriter, start []byte, n int) {
	reqs := make([]*request, s.cl.Shards())
	for sh := range reqs {
		reqs[sh] = &request{op: opScan, start: start, n: n, shard: sh}
	}
	resps, errReply := s.doStorage(reqs)
	if errReply != "" {
		w.WriteError(errReply)
		return
	}
	var pairs []anykey.Pair
	for _, rp := range resps {
		if rp.timedOut {
			w.WriteError("TIMEOUT virtual latency budget exceeded")
			return
		}
		pairs = append(pairs, rp.pairs...)
	}
	// Each shard's slice is sorted; a full sort of the union keeps this
	// simple at the fan-out sizes a SCAN page allows.
	sort.Slice(pairs, func(i, j int) bool {
		return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0
	})
	if len(pairs) > n {
		pairs = pairs[:n]
	}
	cursor := []byte{}
	if len(pairs) == n && n > 0 {
		// More may remain: resume just after the last key returned.
		last := pairs[len(pairs)-1].Key
		cursor = append(append([]byte(nil), last...), 0)
	}
	w.WriteArrayHeader(2)
	w.WriteBulk(cursor)
	w.WriteArrayHeader(2 * len(pairs))
	for _, p := range pairs {
		w.WriteBulk(p.Key)
		w.WriteBulk(p.Value)
	}
}

// info renders the INFO reply: a Redis-style sectioned text block.
func (s *Server) info() string {
	st := s.cl.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Server\r\n")
	fmt.Fprintf(&sb, "uptime_seconds:%d\r\n", int64(time.Since(s.started).Seconds()))
	fmt.Fprintf(&sb, "time_scale:%g\r\n", s.cfg.TimeScale)
	fmt.Fprintf(&sb, "shards:%d\r\n", st.Shards)
	fmt.Fprintf(&sb, "# Cluster\r\n")
	fmt.Fprintf(&sb, "ops:%d\r\n", st.Ops)
	fmt.Fprintf(&sb, "virtual_clock_seconds:%.6f\r\n", float64(st.Now)/1e9)
	fmt.Fprintf(&sb, "live_keys:%d\r\n", st.LiveKeys)
	fmt.Fprintf(&sb, "live_bytes:%d\r\n", st.LiveBytes)
	fmt.Fprintf(&sb, "flash_writes:%d\r\n", st.Flash.TotalWrites())
	fmt.Fprintf(&sb, "gc_runs:%d\r\n", st.GCRuns)
	fmt.Fprintf(&sb, "syncs:%d\r\n", st.Syncs)
	fmt.Fprintf(&sb, "journal_pages:%d\r\n", st.JournalPages)
	fmt.Fprintf(&sb, "journal_checkpoints:%d\r\n", st.JournalCheckpoints)
	fmt.Fprintf(&sb, "sync_flushes:%d\r\n", st.SyncFlushes)
	ts := s.cl.TxnStats()
	fmt.Fprintf(&sb, "# Transactions\r\n")
	fmt.Fprintf(&sb, "txn_commits:%d\r\n", ts.Commits)
	fmt.Fprintf(&sb, "txn_aborts:%d\r\n", ts.Aborts)
	fmt.Fprintf(&sb, "txn_conflicts:%d\r\n", ts.Conflicts)
	fmt.Fprintf(&sb, "txn_retries:%d\r\n", ts.Retries)
	fmt.Fprintf(&sb, "txn_atomic_batches:%d\r\n", ts.AtomicBatches)
	fmt.Fprintf(&sb, "txn_prepares:%d\r\n", ts.Prepares)
	fmt.Fprintf(&sb, "txn_split_merges:%d\r\n", ts.SplitMerges)
	fmt.Fprintf(&sb, "txn_split_ops:%d\r\n", ts.SplitOps)
	fmt.Fprintf(&sb, "txn_hot_keys:%d\r\n", ts.HotKeys)
	fmt.Fprintf(&sb, "txn_rolled_forward:%d\r\n", ts.RolledForward)
	fmt.Fprintf(&sb, "txn_rolled_back:%d\r\n", ts.RolledBack)
	fmt.Fprintf(&sb, "# Memory\r\n")
	fmt.Fprintf(&sb, "store_mode:%s\r\n", st.Store.Mode)
	fmt.Fprintf(&sb, "store_live_pages:%d\r\n", st.Store.LivePages)
	fmt.Fprintf(&sb, "store_logical_bytes:%d\r\n", st.Store.LogicalBytes)
	fmt.Fprintf(&sb, "store_resident_bytes:%d\r\n", st.Store.ResidentBytes)
	if cs := st.Cache; cs != nil {
		fmt.Fprintf(&sb, "# Cache\r\n")
		fmt.Fprintf(&sb, "cache_hits:%d\r\n", cs.Hits)
		fmt.Fprintf(&sb, "cache_misses:%d\r\n", cs.Misses)
		fmt.Fprintf(&sb, "cache_admitted:%d\r\n", cs.Admitted)
		fmt.Fprintf(&sb, "cache_evicted:%d\r\n", cs.Evicted)
		fmt.Fprintf(&sb, "cache_bytes:%d\r\n", cs.Bytes)
		fmt.Fprintf(&sb, "cache_entries:%d\r\n", cs.Entries)
	}
	if fs, err := s.cl.FleetStats(); err == nil {
		fmt.Fprintf(&sb, "# Replication\r\n")
		fmt.Fprintf(&sb, "replication_factor:%d\r\n", fs.Repl.Factor)
		fmt.Fprintf(&sb, "write_quorum:%d\r\n", fs.Repl.WriteQuorum)
		fmt.Fprintf(&sb, "read_mode:%s\r\n", fs.Repl.ReadMode)
		fmt.Fprintf(&sb, "epoch:%d\r\n", fs.Repl.Epoch)
		fmt.Fprintf(&sb, "ring_members:%d\r\n", fs.Repl.RingMembers)
		fmt.Fprintf(&sb, "dead_members:%d\r\n", fs.Repl.DeadMembers)
		fmt.Fprintf(&sb, "quorum_failures:%d\r\n", fs.Repl.QuorumFailures)
		fmt.Fprintf(&sb, "read_fallbacks:%d\r\n", fs.Repl.ReadFallbacks)
		fmt.Fprintf(&sb, "migrated_keys:%d\r\n", fs.Repl.MigratedKeys)
		fmt.Fprintf(&sb, "rebuilds:%d\r\n", fs.Repl.Rebuilds)
	}
	for _, ss := range st.PerShard {
		fmt.Fprintf(&sb, "# Shard%d\r\n", ss.Shard)
		fmt.Fprintf(&sb, "ops:%d\r\n", ss.Ops)
		fmt.Fprintf(&sb, "virtual_clock_seconds:%.6f\r\n", float64(ss.Now)/1e9)
		fmt.Fprintf(&sb, "live_keys:%d\r\n", ss.LiveKeys)
	}
	return sb.String()
}

// Shutdown gracefully stops the server: it refuses new connections, turns
// /healthz unhealthy, lets in-flight commands finish, then closes the
// cluster. The context bounds the connection drain; on expiry remaining
// connections are closed forcibly. Safe to call more than once; later calls
// return the first outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(ctx) })
	return s.shutdownErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()

	// Wake every connection blocked in a read: the expired deadline fails
	// the next socket read, while commands already parsed still execute
	// and their replies still flush (writes keep their own deadline).
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.connWG.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-drained
	}

	// Commands run on their connection's goroutine, so with every handler
	// gone nothing is in flight on any shard.
	var errs []error
	if _, err := s.cl.Sync(); err != nil {
		errs = append(errs, fmt.Errorf("final sync: %w", err))
	}
	if err := s.closeCluster(); err != nil {
		errs = append(errs, fmt.Errorf("close cluster: %w", err))
	}
	if s.hs != nil {
		hctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.hs.Shutdown(hctx); err != nil {
			errs = append(errs, fmt.Errorf("metrics endpoint: %w", err))
		}
	}
	return errors.Join(errs...)
}
