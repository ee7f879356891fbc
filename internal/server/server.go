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
	"anykey/internal/cluster"
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
// families — cluster statistics (stats.go) and the tail-blame gauges — are
// computed by an OnScrape hook, so the request path pays nothing for them.
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

	// Each mirrors one statistics snapshot into its table's families
	// (stats.go); member and repl are nil unless the cluster replicates.
	rollup func(*cluster.Rollup, ...string)    // {shard}
	member func(*anykey.ShardStats, ...string) // {shard}
	txn    func(*anykey.TxnStats, ...string)
	store  func(*anykey.StoreFootprint, ...string)
	cache  func(*anykey.CacheStats, ...string)
	repl   func(*anykey.ReplicationStats, ...string)
}

func newServerMetrics(r *metrics.Registry, replicated bool) *serverMetrics {
	latBuckets := metrics.ExpBuckets(1e-6, 2, 24) // 1µs … ~8s of virtual time
	m := &serverMetrics{
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

		rollup: export(r, rollupStats, "shard"),
		txn:    export(r, txnStats),
		store:  export(r, storeStats),
		cache:  export(r, cacheStats),
	}
	if replicated {
		m.member = export(r, memberStats, "shard")
		m.repl = export(r, replStats)
	}
	return m
}

// registerHeapGauge exports the process's live heap, read at scrape time.
func registerHeapGauge(r *metrics.Registry) {
	r.NewGaugeFunc("anykey_heap_bytes", "Live heap bytes of the server process (runtime HeapAlloc).", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
}

// Server is a running anykeyserver: a RESP front end, its bridge, and the
// metrics endpoint.
type Server struct {
	cfg Config
	cl  *anykey.Cluster
	br  *Bridge
	reg *metrics.Registry
	met *serverMetrics

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
	met := newServerMetrics(reg, cl.Replication().Factor > 0)
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
		s.met.rollup(&ss.Rollup, sh)
	}
	s.met.store(&st.Store)
	if st.Cache != nil {
		s.met.cache(st.Cache)
	}
	ts := s.cl.TxnStats()
	s.met.txn(&ts)
	if s.met.repl == nil {
		return
	}
	fs, err := s.cl.FleetStats()
	if err != nil {
		return
	}
	for _, ss := range fs.PerShard {
		s.met.member(&ss, strconv.Itoa(ss.Shard))
	}
	s.met.repl(&fs.Repl)
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
	c := &session{s: s, w: newRespWriter(conn)}
	for {
		args, err := r.ReadCommand()
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				c.w.WriteError("ERR " + err.Error())
				c.w.Flush()
			}
			return
		}
		closing := c.dispatch(args)
		// Pipelining: flush only when the client has no further command
		// already buffered, so a burst of N commands costs one write.
		if r.buffered() == 0 || closing {
			if err := c.w.Flush(); err != nil {
				return
			}
		}
		if closing {
			return
		}
	}
}

// session is one client connection as its commands see it: the server, the
// reply writer, and the MULTI state — an open block queues write operations
// until EXEC commits them as one atomic cross-shard batch.
type session struct {
	s        *Server
	w        *respWriter
	multi    bool
	queue    []anykey.TxnOp
	multiErr bool // a queue-time error poisons the block: EXEC answers -EXECABORT
}

// command is one entry of a command table. Its bounds count every argument,
// the command's own name (and a FLEET subcommand's) included; max < 0 means
// unbounded. Inside an open MULTI block a command with queue appends its
// operations to the block, an unqueued one runs as it would outside, and
// any other is refused and poisons the block.
type command struct {
	min, max   int
	queue      func(c *session, args [][]byte)
	unqueued   bool
	replicated bool // refused, before the arity check, unless the cluster replicates
	quit       bool // the connection closes after the reply
	run        func(c *session, args [][]byte)
}

// commands is the RESP command table, keyed by upper-case name. A command
// Redis does not bound, like INFO or COMMAND, is unbounded here too.
var commands = map[string]command{
	"PING": {min: 1, max: 2, run: ping},
	"ECHO": {min: 2, max: 2, run: ping},
	// redis-cli probes COMMAND DOCS on connect; an empty array keeps it happy
	// without implementing the catalogue.
	"COMMAND": {min: 1, max: -1, run: func(c *session, _ [][]byte) { c.w.WriteArrayHeader(0) }},
	"QUIT":    {min: 1, max: -1, unqueued: true, quit: true, run: func(c *session, _ [][]byte) { c.w.WriteSimple("OK") }},
	"INFO":    {min: 1, max: -1, run: func(c *session, _ [][]byte) { c.w.WriteBulk([]byte(c.s.info())) }},
	"SET": {min: 3, max: 3, run: mset, queue: func(c *session, args [][]byte) {
		c.queue = append(c.queue, anykey.TxnOp{
			Key:   append([]byte(nil), args[1]...),
			Value: append([]byte(nil), args[2]...),
		})
	}},
	"MSET": {min: 3, max: -1, run: mset},
	"GET": {min: 2, max: 2, run: func(c *session, args [][]byte) {
		resps, errReply := c.s.doStorage([]request{{op: opGet, key: args[1]}})
		switch {
		case errReply != "":
			c.w.WriteError(errReply)
		case resps[0].timedOut:
			c.w.WriteError("TIMEOUT virtual latency budget exceeded")
		default:
			c.w.WriteBulk(resps[0].comp.Value) // nil on a miss: the null bulk
		}
	}},
	"MGET": {min: 2, max: -1, run: func(c *session, args [][]byte) {
		resps, errReply := c.s.doStorage(keyRequests(opGet, args[1:]))
		if errReply != "" {
			c.w.WriteError(errReply)
			return
		}
		c.w.WriteArrayHeader(len(resps))
		for _, rp := range resps {
			if rp.timedOut {
				c.w.WriteBulk(nil)
			} else {
				c.w.WriteBulk(rp.comp.Value)
			}
		}
	}},
	"DEL": {min: 2, max: -1, run: func(c *session, args [][]byte) {
		resps, errReply := c.s.doRawWrite(keyRequests(opDel, args[1:]))
		if errReply != "" {
			c.w.WriteError(errReply)
			return
		}
		// The device acknowledges deletes of absent keys, so DEL counts
		// acknowledged deletions, not prior existence.
		n := int64(0)
		for _, rp := range resps {
			if !rp.timedOut {
				n++
			}
		}
		c.w.WriteInt(n)
	}, queue: func(c *session, args [][]byte) {
		for _, k := range args[1:] {
			c.queue = append(c.queue, anykey.TxnOp{Key: append([]byte(nil), k...), Delete: true})
		}
	}},
	"SCAN":   {min: 3, max: 3, run: scan},
	"INCR":   {min: 2, max: 2, run: incr},
	"INCRBY": {min: 3, max: 3, run: incr},
	"APPEND": {min: 3, max: 3, run: func(c *session, args [][]byte) {
		_, err := c.s.cl.Append(args[1], args[2])
		c.txnReply(err)
	}},
	// CAS key old new: write new iff the current value equals old; an empty
	// old means "expect absent". A mismatch answers -CONFLICT and hands the
	// race back to the client.
	"CAS": {min: 4, max: 4, run: func(c *session, args [][]byte) {
		_, err := c.s.cl.CompareAndSwap(args[1], args[2], args[3])
		c.txnReply(err)
	}},
	"MULTI": {min: 1, max: -1, unqueued: true, run: func(c *session, _ [][]byte) {
		if c.multi {
			c.w.WriteError("ERR MULTI calls can not be nested")
			return
		}
		c.multi, c.queue, c.multiErr = true, c.queue[:0], false
		c.w.WriteSimple("OK")
	}},
	"EXEC": {min: 1, max: -1, unqueued: true, run: func(c *session, _ [][]byte) {
		if !c.multi {
			c.w.WriteError("ERR EXEC without MULTI")
			return
		}
		ops, poisoned := c.queue, c.multiErr
		c.multi, c.queue, c.multiErr = false, nil, false
		switch {
		case poisoned:
			c.w.WriteError("EXECABORT Transaction discarded because of previous errors.")
		case len(ops) == 0:
			c.w.WriteArrayHeader(0)
		default:
			if _, err := c.s.cl.AtomicExec(ops); err != nil {
				c.w.WriteError(txnErrReply(err))
				return
			}
			c.w.WriteArrayHeader(len(ops))
			for range ops {
				c.w.WriteSimple("OK")
			}
		}
	}},
	"DISCARD": {min: 1, max: -1, unqueued: true, run: func(c *session, _ [][]byte) {
		if !c.multi {
			c.w.WriteError("ERR DISCARD without MULTI")
			return
		}
		c.multi, c.queue, c.multiErr = false, nil, false
		c.w.WriteSimple("OK")
	}},
	"FLEET": {min: 2, max: -1, replicated: true, run: fleet},
}

// fleetCommands is the FLEET subcommand table, keyed by lower-case name;
// fleet runs them.
var fleetCommands = map[string]command{
	"status": {min: 2, max: 2}, "kill": {min: 3, max: 4}, "rebuild": {min: 3, max: 3}, "rmshard": {min: 3, max: 3},
}

// arityOK reports whether n arguments fit cmd's bounds, answering the
// wrong-arity error for name when they do not.
func (cmd *command) arityOK(w *respWriter, name string, n int) bool {
	if n >= cmd.min && (cmd.max < 0 || n <= cmd.max) {
		return true
	}
	wrongArity(w, name)
	return false
}

func wrongArity(w *respWriter, name string) {
	w.WriteError("ERR wrong number of arguments for '" + strings.ToLower(name) + "' command")
}

// dispatch executes one command and writes its reply (unflushed). It
// returns true when the connection should close.
func (c *session) dispatch(args [][]byte) bool {
	name := strings.ToUpper(string(args[0]))
	cmd, known := commands[name]
	switch {
	case c.multi && cmd.queue == nil && !cmd.unqueued:
		// The atomic batch is put/delete-shaped; anything else cannot
		// queue. The poisoned block aborts at EXEC, like Redis.
		c.multiErr = true
		c.w.WriteError("ERR command '" + sanitizeLine(string(args[0])) + "' not allowed in MULTI (only SET and DEL queue)")
	case !known:
		c.w.WriteError("ERR unknown command '" + sanitizeLine(string(args[0])) + "'")
	case cmd.replicated && c.s.cl.Replication().Factor == 0:
		c.w.WriteError("ERR fleet commands need a replicated cluster (start anykeyserver with -replication)")
	case !cmd.arityOK(c.w, name, len(args)):
		c.multiErr = c.multiErr || c.multi // a wrong arity poisons an open block
	case c.multi && cmd.queue != nil:
		cmd.queue(c, args)
		c.w.WriteSimple("QUEUED")
	default:
		cmd.run(c, args)
		return cmd.quit
	}
	return false
}

// ping is PING [message] and ECHO message.
func ping(c *session, args [][]byte) {
	if len(args) == 2 {
		c.w.WriteBulk(args[1])
	} else {
		c.w.WriteSimple("PONG")
	}
}

// keyRequests is one op request per key.
func keyRequests(op opKind, keys [][]byte) []request {
	reqs := make([]request, len(keys))
	for i, k := range keys {
		reqs[i] = request{op: op, key: k}
	}
	return reqs
}

// mset is MSET and SET: a raw write of every key/value pair.
func mset(c *session, args [][]byte) {
	if len(args)%2 != 1 {
		wrongArity(c.w, "mset")
		return
	}
	reqs := make([]request, 0, (len(args)-1)/2)
	for i := 1; i < len(args); i += 2 {
		reqs = append(reqs, request{op: opSet, key: args[i], value: args[i+1]})
	}
	resps, errReply := c.s.doRawWrite(reqs)
	switch {
	case errReply != "":
		c.w.WriteError(errReply)
	case slices.ContainsFunc(resps, func(rp response) bool { return rp.timedOut }):
		c.w.WriteError("TIMEOUT virtual latency budget exceeded")
	default:
		c.w.WriteSimple("OK")
	}
}

// incr is INCR key | INCRBY key delta: an atomic counter add through the
// OCC layer, with hot keys absorbed by the split phase. The reply is the new
// value (on a split hot key: the exact phase-local running total).
func incr(c *session, args [][]byte) {
	delta := int64(1)
	if len(args) == 3 {
		var err error
		if delta, err = strconv.ParseInt(string(args[2]), 10, 64); err != nil {
			c.w.WriteError("ERR value is not an integer or out of range")
			return
		}
	}
	v, _, err := c.s.cl.Incr(args[1], delta)
	if err != nil {
		c.w.WriteError(txnErrReply(err))
		return
	}
	c.w.WriteInt(v)
}

// txnReply answers OK, or err's transaction-layer error line.
func (c *session) txnReply(err error) {
	if err != nil {
		c.w.WriteError(txnErrReply(err))
	} else {
		c.w.WriteSimple("OK")
	}
}

// fleet handles FLEET STATUS | KILL <id> [powercut|grownbad] |
// REBUILD <id> | RMSHARD <id>. Topology commands run on the connection
// goroutine like every other command, concurrent with the other
// connections' traffic — the fleet's member and topology locks make that
// safe — so traffic keeps flowing while a rebuild or a removal streams
// keys. AddShard is deliberately not exposed over the wire: the bridge reads
// each member's clock epoch and resolves its series once, at startup, and a
// member born mid-flight would have neither.
func fleet(c *session, args [][]byte) {
	sub := strings.ToLower(string(args[1]))
	cmd, ok := fleetCommands[sub]
	if !ok {
		c.w.WriteError("ERR unknown fleet subcommand '" + sanitizeLine(string(args[1])) + "'")
		return
	}
	if !cmd.arityOK(c.w, "fleet "+sub, len(args)) {
		return
	}
	var id int
	if len(args) > 2 {
		var err error
		if id, err = strconv.Atoi(string(args[2])); err != nil {
			c.w.WriteError("ERR invalid member id " + sanitizeLine(string(args[2])))
			return
		}
	}
	cl := c.s.cl
	var err error
	switch sub {
	case "status":
		var fs anykey.FleetStats
		if fs, err = cl.FleetStats(); err == nil {
			c.w.WriteBulk([]byte(fleetStatus(&fs)))
		}
	case "kill":
		cause := anykey.KillPowerCut
		if len(args) == 4 {
			switch strings.ToLower(string(args[3])) {
			case "powercut":
			case "grownbad":
				cause = anykey.KillGrownBad
			default:
				c.w.WriteError("ERR unknown kill cause " + sanitizeLine(string(args[3])) + " (powercut | grownbad)")
				return
			}
		}
		if err = cl.KillShard(id, cause); err == nil {
			c.w.WriteSimple("OK")
		}
	case "rebuild":
		var rb *anykey.Rebuild
		if rb, err = cl.RebuildShard(id); err == nil {
			err = rb.Run()
		}
		if err == nil {
			_, _, keys := rb.Progress()
			c.w.WriteInt(keys)
		}
	case "rmshard":
		var mig *anykey.Migration
		if mig, err = cl.RemoveShard(id); err == nil {
			err = mig.Run()
		}
		var fs anykey.FleetStats
		if err == nil {
			fs, err = cl.FleetStats()
		}
		if err == nil {
			c.w.WriteInt(fs.Repl.MigratedKeys)
		}
	}
	if err != nil {
		c.w.WriteError("ERR " + err.Error())
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
func (s *Server) doRawWrite(reqs []request) ([]response, string) {
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
func (s *Server) doStorage(reqs []request) ([]response, string) {
	wall := time.Now()
	anyShed := false
	for i := range reqs {
		req := &reqs[i]
		req.wall = wall
		if req.op != opScan { // a scan names its shard, the rest route by key
			req.shard = s.cl.ShardFor(req.key)
		}
		req.admitted = s.br.admit(req.shard)
		anyShed = anyShed || !req.admitted
	}
	resps := make([]response, len(reqs))
	var firstErr error
	for i := range reqs {
		if !reqs[i].admitted {
			continue
		}
		resps[i] = s.br.do(&reqs[i])
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

// scan is SCAN <start-key> <count>: a cursor-style range query sent to
// every shard in turn. The reply is [next-cursor, flat key/value array] of
// the merged sorted sub-results; an empty next-cursor means the keyspace is
// exhausted.
func scan(c *session, args [][]byte) {
	s, w, start := c.s, c.w, args[1]
	n, err := strconv.Atoi(string(args[2]))
	if err != nil || n <= 0 || n > MaxArray/2 {
		w.WriteError("ERR invalid scan count")
		return
	}
	reqs := make([]request, s.cl.Shards())
	for sh := range reqs {
		reqs[sh] = request{op: opScan, start: start, n: n, shard: sh}
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
		pairs = append(pairs, rp.comp.Pairs...)
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
	writeSection(&sb, "Cluster", rollupStats, &st.Rollup)
	ts := s.cl.TxnStats()
	writeSection(&sb, "Transactions", txnStats, &ts)
	writeSection(&sb, "Memory", storeStats, &st.Store)
	if st.Cache != nil {
		writeSection(&sb, "Cache", cacheStats, st.Cache)
	}
	if fs, err := s.cl.FleetStats(); err == nil {
		writeSection(&sb, "Replication", replStats, &fs.Repl)
	}
	for _, ss := range st.PerShard {
		writeSection(&sb, "Shard"+strconv.Itoa(ss.Shard), rollupStats[:shardInfoRows], &ss.Rollup)
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
