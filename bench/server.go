package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"anykey/internal/server"
	"anykey/internal/workload"
	"anykey/internal/zipfian"
)

// Server workloads drive cmd/anykeyserver as a child process over loopback
// TCP with internal/server's RESP client. They are sized by wall duration
// on a freshly started server, because the server's speed depends on its
// uptime (its tracer rings fill). Every connection owns a slice of the key
// space and checks each reply against its own model of that slice.

const (
	buildDir     = ".bench_build"
	srvSliceReqs = 256 // requests per connection in one rate slice
	oracleExecs  = 128 // EXECs per connection re-read by the final oracle
	mgetKeys     = 4
	execKeys     = 4
	preloadBatch = 16 // pairs per MSET during preload
)

type srvSpec struct {
	txn      bool
	keys     uint64 // preloaded population, split evenly over the connections
	counters uint64 // shared INCR counters (srv-write-txn)
	pipeline int
}

func srvSpecFor(name string, smoke bool) srvSpec {
	s := srvSpec{keys: 100_000, pipeline: 8}
	if name == "srv-write-txn" {
		s = srvSpec{txn: true, keys: 50_000, counters: 4096, pipeline: 1}
	}
	if smoke {
		s.keys /= 50
	}
	return s
}

var srvKV = workload.Custom("srv", 16, 64)

// buildServer compiles cmd/anykeyserver into buildDir once per process. It
// is not part of setup_s.
var buildServer = sync.OnceValues(func() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "anykeyserver"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/anykeyserver").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/anykeyserver: %v\n%s", err, out)
	}
	return bin, nil
})

func serverSetup(o runOpts) (setupFunc, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	s := srvSpecFor(o.workload, o.smoke)
	return func(traced bool) (target, error) { return startServer(bin, s, o.seed, traced) }, nil
}

// srvRun is one running child with its preloaded connections.
type srvRun struct {
	s       srvSpec
	cmd     *exec.Cmd
	addr    string
	metrics string // host:port of /metrics and /debug/pprof
	conns   []*srvConn
}

var listenLine = regexp.MustCompile(`cluster on (\S+?),? metrics on (\S+)`)

// startServer spawns the child, waits for its listen line, opens the
// connections and preloads the population: together, set-up.
func startServer(bin string, s srvSpec, seed int64, traced bool) (_ *srvRun, err error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-shards", "4", "-capacity", "64", "-design", "anykey+")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &srvRun{s: s, cmd: cmd}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("anykeyserver printed no listen line: %w", err)
	}
	go io.Copy(io.Discard, stdout) // the child must never block on its stdout
	m := listenLine.FindStringSubmatch(line)
	if m == nil {
		return nil, fmt.Errorf("cannot parse listen line %q", line)
	}
	r.addr, r.metrics = m[1], m[2]

	c := drivers()
	per := s.keys / uint64(c)
	for i := 0; i < c; i++ {
		sc, err := dialConn(r.addr, i, c, per, s, seed, traced)
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, sc)
	}
	errs := make(chan error, c)
	for _, sc := range r.conns {
		go func() { errs <- sc.preload() }()
	}
	for range r.conns {
		if e := <-errs; e != nil && err == nil {
			err = fmt.Errorf("preload: %w", e)
		}
	}
	return r, err
}

// close stops the child with SIGTERM (it drains and syncs) and waits for it.
func (r *srvRun) close() error {
	for _, sc := range r.conns {
		sc.cl.Close()
	}
	r.conns = nil
	if r.cmd.Process == nil {
		return nil
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("anykeyserver exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = r.cmd.Process.Kill()
		<-done
		return errors.New("anykeyserver ignored SIGTERM for 20s; killed")
	}
}

func (r *srvRun) opsPerRequest() int64 { return int64(r.s.pipeline) }

func (r *srvRun) recorders(epoch time.Time) []*recorder {
	recs := make([]*recorder, len(r.conns))
	for i := range recs {
		recs[i] = newRecorder(epoch)
	}
	return recs
}

// timedConn measures the time a connection spends blocked in the kernel,
// so a traced run can tell waiting for the server from parsing its reply.
type timedConn struct {
	net.Conn
	readNs, writeNs int64
}

func (c *timedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.readNs += int64(time.Since(t))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs += int64(time.Since(t))
	return n, err
}

// srvConn is one closed-loop client connection with its model.
type srvConn struct {
	s      srvSpec
	cl     *server.Client
	tc     *timedConn // nil on untraced runs
	idx, n int        // this connection's index and the connection count
	per    uint64     // keys owned: ids idx, idx+n, idx+2n, ...

	rng      *rand.Rand
	zipf     *zipfian.Generator
	czipf    *zipfian.Generator // over the shared counters
	versions []uint32           // model: latest acknowledged version per owned key

	acked     int64      // INCRs acknowledged with an integer
	execs     [][]uint64 // local key indexes of recent committed EXECs
	execFails [][]uint64 // and of every EXEC answered with an error

	expect []byte // scratch for the expected value of a read
}

func dialConn(addr string, idx, n int, per uint64, s srvSpec, seed int64, traced bool) (*srvConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sc := &srvConn{s: s, idx: idx, n: n, per: per,
		rng:      rand.New(rand.NewSource(seed*1000 + int64(idx))),
		versions: make([]uint32, per)}
	if traced {
		sc.tc = &timedConn{Conn: conn}
		conn = sc.tc
	}
	sc.cl = server.NewClient(conn)
	if sc.zipf, err = zipfian.New(per, 0.99); err != nil {
		return nil, err
	}
	if s.counters > 0 {
		if sc.czipf, err = zipfian.New(s.counters, 0.99); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func (sc *srvConn) key(local uint64) []byte {
	return workload.Key(srvKV, local*uint64(sc.n)+uint64(sc.idx))
}

func (sc *srvConn) value(local uint64, version uint32) []byte {
	return workload.Value(srvKV, local*uint64(sc.n)+uint64(sc.idx), version)
}

func counterKey(i uint64) []byte { return []byte(fmt.Sprintf("ctr:%012d", i)) }

// preload stores version 0 of every owned key with pipelined MSETs.
func (sc *srvConn) preload() error {
	inflight := 0
	drain := func() error {
		if err := sc.cl.Flush(); err != nil {
			return err
		}
		for ; inflight > 0; inflight-- {
			rp, err := sc.cl.Receive()
			if err != nil {
				return err
			}
			if e := rp.Err(); e != nil {
				return e
			}
		}
		return nil
	}
	for lo := uint64(0); lo < sc.per; lo += preloadBatch {
		args := [][]byte{[]byte("MSET")}
		for l := lo; l < min(lo+preloadBatch, sc.per); l++ {
			args = append(args, sc.key(l), sc.value(l, 0))
		}
		if err := sc.cl.SendBytes(args); err != nil {
			return err
		}
		if inflight++; inflight == 8 {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// Command kinds of one generated request.
const (
	kGet byte = iota
	kMGet
	kSet
	kIncr
	kExec
	kCAS
)

var kindNames = [...]string{kGet: "GET", kMGet: "MGET", kSet: "SET", kIncr: "INCR", kExec: "EXEC", kCAS: "CAS"}

func isWrite(k byte) bool { return k == kSet || k == kIncr || k == kExec || k == kCAS }

// request is one closed-loop unit: a command, or a MULTI block of six.
type request struct {
	kind    byte
	locals  []uint64   // owned-key indexes (or the counter) it touches
	want    []uint32   // reads: the version the model holds for each local
	cmds    [][][]byte // the commands, as RESP argument lists
	replies []server.Reply
}

// pick draws the next command kind from the workload's mix.
func (sc *srvConn) pick() byte {
	r := sc.rng.Float64()
	if !sc.s.txn {
		switch {
		case r < 0.70:
			return kGet
		case r < 0.95:
			return kMGet
		}
		return kSet
	}
	switch {
	case r < 0.40:
		return kSet
	case r < 0.60:
		return kIncr
	case r < 0.75:
		return kExec
	case r < 0.80:
		return kCAS
	}
	return kGet
}

func (sc *srvConn) draw() uint64 { return sc.zipf.NextScrambled(sc.rng) }

func cmd(name string, args ...[]byte) [][]byte {
	return append([][]byte{[]byte(name)}, args...)
}

// generate draws one request from the mix and applies it to the
// connection's model at once: the server runs a connection's commands in
// order, so a read later in the same pipelined batch must see this write.
func (sc *srvConn) generate(rq *request) {
	rq.kind = sc.pick()
	rq.locals, rq.want, rq.cmds, rq.replies = rq.locals[:0], rq.want[:0], rq.cmds[:0], rq.replies[:0]
	switch rq.kind {
	case kGet:
		l := sc.draw()
		rq.locals, rq.want = append(rq.locals, l), append(rq.want, sc.versions[l])
		rq.cmds = append(rq.cmds, cmd("GET", sc.key(l)))
	case kMGet:
		c := cmd("MGET")
		for j := 0; j < mgetKeys; j++ {
			l := sc.draw()
			rq.locals, rq.want = append(rq.locals, l), append(rq.want, sc.versions[l])
			c = append(c, sc.key(l))
		}
		rq.cmds = append(rq.cmds, c)
	case kSet:
		l := sc.draw()
		rq.locals = append(rq.locals, l)
		sc.versions[l]++
		rq.cmds = append(rq.cmds, cmd("SET", sc.key(l), sc.value(l, sc.versions[l])))
	case kCAS:
		l := sc.draw()
		rq.locals = append(rq.locals, l)
		sc.versions[l]++
		rq.cmds = append(rq.cmds, cmd("CAS", sc.key(l), sc.value(l, sc.versions[l]-1), sc.value(l, sc.versions[l])))
	case kIncr:
		c := sc.czipf.NextScrambled(sc.rng)
		rq.locals = append(rq.locals, c)
		rq.cmds = append(rq.cmds, cmd("INCR", counterKey(c)))
	case kExec:
		rq.cmds = append(rq.cmds, cmd("MULTI"))
		for j := 0; j < execKeys; j++ {
			l := sc.draw()
			for contains(rq.locals, l) { // four distinct keys, so each moves one version
				l = (l + 1) % sc.per
			}
			rq.locals = append(rq.locals, l)
			sc.versions[l]++
			rq.cmds = append(rq.cmds, cmd("SET", sc.key(l), sc.value(l, sc.versions[l])))
		}
		rq.cmds = append(rq.cmds, cmd("EXEC"))
	}
}

func contains(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// verify checks a request's replies against the model. A refused write
// takes its version step back, so the model keeps describing the server.
func (sc *srvConn) verify(rq *request, m *measurement) {
	m.attempted++
	last := rq.replies[len(rq.replies)-1]
	for _, rp := range rq.replies {
		if e := rp.Err(); e != nil {
			m.fail("conn %d %s: %v", sc.idx, kindNames[rq.kind], e)
			switch rq.kind {
			case kExec:
				sc.execFails = append(sc.execFails, append([]uint64(nil), rq.locals...))
				fallthrough
			case kSet, kCAS:
				for _, l := range rq.locals {
					sc.versions[l]--
				}
			}
			return
		}
	}
	switch rq.kind {
	case kGet:
		sc.checkValue(last, rq.locals[0], rq.want[0], m)
	case kMGet:
		if len(last.Array) != len(rq.locals) {
			m.fail("conn %d MGET: %d replies for %d keys", sc.idx, len(last.Array), len(rq.locals))
			break
		}
		for j, l := range rq.locals {
			sc.checkValue(last.Array[j], l, rq.want[j], m)
		}
	case kSet, kCAS:
		if last.Str != "OK" {
			m.fail("conn %d %s: reply %q", sc.idx, kindNames[rq.kind], last.Text())
		}
	case kIncr:
		if last.Kind != ':' {
			m.fail("conn %d INCR: reply %q", sc.idx, last.Text())
			break
		}
		sc.acked++
	case kExec:
		if len(last.Array) != execKeys {
			m.fail("conn %d EXEC: reply %q", sc.idx, last.Text())
			break
		}
		if len(sc.execs) == oracleExecs {
			sc.execs = sc.execs[1:]
		}
		sc.execs = append(sc.execs, append([]uint64(nil), rq.locals...))
	}
}

func (sc *srvConn) checkValue(rp server.Reply, local uint64, version uint32, m *measurement) {
	sc.expect = workload.AppendValue(sc.expect[:0], srvKV, local*uint64(sc.n)+uint64(sc.idx), version)
	if rp.Null || !bytes.Equal(rp.Bulk, sc.expect) {
		m.fail("conn %d read of key %d: reply differs from the connection's model", sc.idx, local)
	}
}

// connResult is what one connection's loop hands back for merging.
type connResult struct {
	m     measurement
	rates []float64 // requests per second of each slice of srvSliceReqs requests
	err   error
}

// run is one connection's closed loop: generate a batch, send it, receive
// every reply, check them, until the deadline. A request's latency runs from
// the flush of its batch to the moment its reply is parsed.
func (sc *srvConn) run(start time.Time, d time.Duration, rec *recorder) (out connResult) {
	batch := make([]request, sc.s.pipeline)
	m := &out.m
	sliceStart, inSlice := start, 0
	for req := int64(0); time.Since(start) < d; req++ {
		root := rec.begin("bench.op", -1, req)
		s := rec.begin("bench.gen", root, req)
		for i := range batch {
			sc.generate(&batch[i])
		}
		rec.end(s)

		sub := rec.begin("bench.submit", root, req)
		var r0, w0 int64
		if sc.tc != nil {
			r0, w0 = sc.tc.readNs, sc.tc.writeNs
		}
		tEnc := time.Now()
		for i := range batch {
			for _, c := range batch[i].cmds {
				if out.err = sc.cl.SendBytes(c); out.err != nil {
					return out
				}
			}
		}
		sent := time.Now()
		if out.err = sc.cl.Flush(); out.err != nil {
			return out
		}
		for i := range batch {
			rq := &batch[i]
			for range rq.cmds {
				rp, err := sc.cl.Receive()
				if err != nil {
					out.err = err
					return out
				}
				rq.replies = append(rq.replies, rp)
			}
			now := time.Now()
			if lat := int64(now.Sub(sent)); isWrite(rq.kind) {
				m.writeNs = append(m.writeNs, lat)
			} else {
				m.readNs = append(m.readNs, lat)
			}
			if inSlice++; inSlice == srvSliceReqs {
				out.rates = append(out.rates, srvSliceReqs/now.Sub(sliceStart).Seconds())
				sliceStart, inSlice = now, 0
			}
		}
		if sc.tc != nil {
			// Split the submit by where the time went: rendering commands
			// into the client's buffer, the kernel, parsing replies.
			end := time.Now()
			blocked := time.Duration(sc.tc.readNs - r0 + sc.tc.writeNs - w0)
			rec.add("client.encode", sub, req, tEnc, sent.Sub(tEnc))
			rec.add("client.wait", sub, req, sent, blocked)
			rec.add("client.parse", sub, req, sent, end.Sub(sent)-blocked)
		}
		rec.end(sub)

		s = rec.begin("bench.verify", root, req)
		for i := range batch {
			sc.verify(&batch[i], m)
		}
		rec.end(s)
		rec.end(root)
	}
	return out
}

// oracle is the exactness check a connection runs after the measured phase:
// keys of every failed EXEC and of the last committed ones must read back as
// the model says — all four moved, or none.
func (sc *srvConn) oracle(m *measurement) error {
	for _, set := range append(sc.execFails, sc.execs...) {
		for _, l := range set {
			rp, err := sc.cl.DoBytes(cmd("GET", sc.key(l)))
			if err != nil {
				return err
			}
			m.attempted++
			sc.checkValue(rp, l, sc.versions[l], m)
		}
	}
	return nil
}

// measure runs every connection for the wall budget, then the oracles, and
// reads the child's counters from outside before and after.
func (r *srvRun) measure(seconds float64, m *measurement, recs []*recorder) (simWindow, error) {
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := make(chan connResult, len(r.conns))
	for i, sc := range r.conns {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		go func() { results <- sc.run(start, time.Duration(seconds*float64(time.Second)), rec) }()
	}
	for range r.conns {
		cr := <-results
		if cr.err != nil && err == nil {
			err = cr.err
		}
		m.attempted += cr.m.attempted
		m.failed += cr.m.failed
		m.notes = append(m.notes, cr.m.notes...)
		m.readNs = append(m.readNs, cr.m.readNs...)
		m.writeNs = append(m.writeNs, cr.m.writeNs...)
		// Connections run side by side, so the server's rate is the sum
		// of theirs, each a median over its own slices.
		m.opsPerS += median(cr.rates)
	}
	if err != nil {
		return nil, fmt.Errorf("connection: %w", err)
	}
	if len(m.notes) > 8 {
		m.notes = m.notes[:8]
	}
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	serverLayer(m.layer, before, after, m.attempted)

	if r.s.txn {
		var acked int64
		for _, sc := range r.conns {
			acked += sc.acked
			if err := sc.oracle(m); err != nil {
				return nil, err
			}
		}
		if err := r.counterOracle(acked, m); err != nil {
			return nil, err
		}
	}
	m.peakRSSMB = peakRSSMB(r.cmd.Process.Pid)
	return nil, nil
}

// counterOracle checks that the counters sum to the acknowledged INCRs.
// INCRBY 0 reads a counter through the transaction layer, which sees
// split-phase deltas a plain GET would miss.
func (r *srvRun) counterOracle(acked int64, m *measurement) error {
	cl := r.conns[0].cl
	var sum int64
	for lo := uint64(0); lo < r.s.counters; lo += 64 {
		hi := min(lo+64, r.s.counters)
		for i := lo; i < hi; i++ {
			if err := cl.SendBytes(cmd("INCRBY", counterKey(i), []byte("0"))); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			rp, err := cl.Receive()
			if err != nil {
				return err
			}
			if rp.Kind != ':' {
				m.fail("counter %d: reply %q", i, rp.Text())
			}
			sum += rp.Int
		}
	}
	m.attempted++
	if sum != acked {
		m.fail("exactness: counters sum to %d, %d INCRs were acknowledged", sum, acked)
	}
	return nil
}

// snapshot is what the child exports at one instant, read from outside.
type snapshot struct {
	series map[string]float64 // /metrics, by full series name with labels
	info   map[string]float64 // INFO fields before the per-shard sections
	mem    map[string]float64 // runtime.MemStats from /debug/pprof/heap?debug=1
}

func (r *srvRun) httpGet(path string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.metrics+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(b), nil
}

func (r *srvRun) scrape() (snapshot, error) {
	s := snapshot{series: map[string]float64{}, info: map[string]float64{}, mem: map[string]float64{}}
	text, err := r.httpGet("/metrics")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				s.series[line[:i]] = v
			}
		}
	}
	rp, err := r.conns[0].cl.Do("INFO")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(rp.Bulk), "\r\n") {
		if strings.HasPrefix(line, "# Shard") {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				s.info[k] = f
			}
		}
	}
	heap, err := r.httpGet("/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(heap, "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			if k, v, ok := strings.Cut(rest, " = "); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					s.mem[k] = f
				}
			}
		}
	}
	return s, nil
}

// sum adds every series of a family whose labels contain all of want.
func (s snapshot) sum(family string, want ...string) float64 {
	var t float64
next:
	for name, v := range s.series {
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		for _, w := range want {
			if !strings.Contains(name, w) {
				continue next
			}
		}
		t += v
	}
	return t
}

// serverLayer fills the per-layer work counts of a server run from the
// difference of two snapshots of the child's exported counters.
func serverLayer(layer map[string]float64, a, b snapshot, ops int64) {
	d := func(family string, want ...string) float64 { return b.sum(family, want...) - a.sum(family, want...) }
	layer["nand.page_reads"] = d("anykey_flash_reads_total")
	layer["nand.page_writes"] = d("anykey_flash_writes_total")
	layer["nand.erases"] = d("anykey_flash_erases_total")
	layer["nand.reads_per_get"] = ratio(layer["nand.page_reads"], d("anykeyserver_ops_total", `op="get"`))
	layer["nand.store_resident_mb"] = b.sum("anykey_store_resident_bytes") / (1 << 20)
	layer["core.tree_compactions"] = d("anykey_tree_compactions_total")
	layer["core.log_compactions"] = d("anykey_log_compactions_total")
	layer["core.chained_compactions"] = d("anykey_chained_compactions_total")
	layer["core.gc_runs"] = d("anykey_gc_runs_total")
	layer["core.gc_relocations"] = d("anykey_gc_relocations_total")
	layer["core.flash_bytes_per_live_byte"] = ratio(b.sum("anykey_store_logical_bytes"), b.sum("anykey_live_bytes"))

	var hottest, total float64
	for name, v := range b.series {
		if strings.HasPrefix(name, "anykey_shard_ops_total{") {
			dv := v - a.series[name]
			hottest = max(hottest, dv)
			total += dv
		}
	}
	layer["cluster.hottest_shard_frac"] = ratio(hottest, total)

	commits := b.info["txn_commits"] - a.info["txn_commits"]
	retries := b.info["txn_retries"] - a.info["txn_retries"]
	aborts := b.info["txn_aborts"] - a.info["txn_aborts"]
	layer["txn.commits"] = commits
	layer["txn.aborts"] = aborts
	layer["txn.retries"] = retries
	layer["txn.split_merges"] = b.info["txn_split_merges"] - a.info["txn_split_merges"]
	layer["txn.commit_frac"] = ratio(commits, commits+retries+aborts)

	layer["server.shed"] = d("anykeyserver_shed_total")
	layer["server.timeouts"] = d("anykeyserver_timeouts_total")
	layer["server.op_errors"] = d("anykeyserver_op_errors_total")
	layer["server.virt_p99_us"] = histQuantile(a, b, "anykeyserver_latency_seconds", 0.99) * 1e6

	layer["runtime.allocs_per_op"] = ratio(b.mem["Mallocs"]-a.mem["Mallocs"], float64(ops))
	layer["runtime.bytes_per_op"] = ratio(b.mem["TotalAlloc"]-a.mem["TotalAlloc"], float64(ops))
	// MemStats carries this only as a fraction since the child started.
	layer["runtime.gc_cpu_frac"] = b.mem["GCCPUFraction"]

	// The shard loops publish their tracers' tail blame as gauges.
	blamed := b.sum("anykey_tail_blame_seconds")
	for _, c := range blameCauses {
		layer["blame."+c+"_share"] = ratio(b.sum("anykey_tail_blame_seconds", `cause="`+c+`"`), blamed)
	}
}

// histQuantile estimates quantile q of a Prometheus histogram family over
// the interval between two snapshots, merged over its label sets, with
// linear interpolation inside the bucket.
func histQuantile(a, b snapshot, family string, q float64) float64 {
	counts := map[float64]float64{}
	for name, v := range b.series {
		if !strings.HasPrefix(name, family+"_bucket{") {
			continue
		}
		_, rest, ok := strings.Cut(name, `le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(rest, "}"), `"`), 64)
		if err != nil { // "+Inf" parses; anything else is not a bound
			continue
		}
		counts[le] += v - a.series[name]
	}
	bounds := make([]float64, 0, len(counts))
	for le := range counts {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := counts[bounds[len(bounds)-1]]
	rank := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, le := range bounds {
		if c := counts[le]; c >= rank && c > prevCount {
			if le > 1e300 { // the +Inf bucket has no upper bound to interpolate to
				return prevBound
			}
			return prevBound + (le-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = le, counts[le]
	}
	return prevBound
}

// profile fetches a CPU profile of the child over the measured phase.
func (r *srvRun) profile(path string, seconds float64) (func() (map[string]float64, error), error) {
	type fetched struct {
		body string
		err  error
	}
	done := make(chan fetched, 1)
	go func() {
		body, err := r.httpGet(fmt.Sprintf("/debug/pprof/profile?seconds=%d", max(1, int(seconds))))
		done <- fetched{body, err}
	}()
	return func() (map[string]float64, error) {
		f := <-done
		if f.err != nil {
			return nil, f.err
		}
		if err := os.WriteFile(path, []byte(f.body), 0o644); err != nil {
			return nil, err
		}
		return reduceProfile(path, false)
	}, nil
}
