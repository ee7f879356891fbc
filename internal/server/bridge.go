package server

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"anykey"
	"anykey/internal/metrics"
)

// opKind enumerates the storage operations a bridge request can carry.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opScan
	numOps
)

var opNames = [numOps]string{"get", "set", "del", "scan"}

// request is one unit of work routed to a shard loop. Wall is the real
// instant the connection handler accepted the command — the bridge maps it
// onto the owning shard's virtual clock.
type request struct {
	op    opKind
	key   []byte
	value []byte
	start []byte // scan: first key
	n     int    // scan: max pairs
	wall  time.Time
	resp  chan response

	// hold, when non-nil, parks the shard loop until it is closed — a test
	// hook for exercising queue saturation deterministically. The loop
	// closes held (when non-nil) once it is parked, so a test can wait for
	// the queue slot to actually free before filling the queue.
	hold chan struct{}
	held chan struct{}
}

// response is a shard loop's answer. Values and pairs are copies owned by
// the receiver — the shard device's buffers never cross the channel.
type response struct {
	comp     anykey.Completion
	value    []byte
	pairs    []anykey.Pair
	found    bool // Get: key present
	err      error
	timedOut bool // virtual latency exceeded the configured timeout
}

// Bridge maps wall-clock request arrivals onto per-shard virtual clock
// domains. One goroutine per shard owns that shard's event loop and submits
// the plain storage operations routed to it. It is not the shard's only
// caller — INCR/CAS/EXEC run from connection goroutines through the
// transaction layer, and a replicated write reaches this shard from another
// shard's loop — so what keeps the engine and its tracer single-caller is
// the cluster's per-shard lock, which every one of those paths holds; the
// loop holds no device state of its own.
//
// The mapping is linear per shard: at bridge start the wall epoch W₀ and
// each shard's virtual clock V₀[s] are read once; a request arriving at
// wall time w is submitted open-loop at virtual arrival
//
//	V₀[s] + scale·(w − W₀)
//
// so wall-clock gaps between requests become virtual idle gaps, wall-clock
// bursts become virtual queueing, and scale compresses or stretches real
// time into simulated time. The engine's non-decreasing-issue watermark
// absorbs requests whose mapped arrival lands before a previously issued
// one.
//
// Backpressure is a bounded per-shard queue: submit is non-blocking and the
// caller sheds with a RESP -BUSY when the loop is saturated. Timeouts are
// virtual: a completion whose simulated latency exceeds the configured
// budget reports timedOut and the connection answers -TIMEOUT, mirroring
// the open-loop harness's timeout accounting.
type Bridge struct {
	cl      *anykey.Cluster
	scale   float64
	timeout anykey.Duration // virtual latency budget; 0 = unlimited

	wallEpoch time.Time
	loops     []*shardLoop
	met       *serverMetrics
	wg        sync.WaitGroup
}

type shardLoop struct {
	shard int
	reqs  chan *request
	shed  *metrics.Counter
}

// newBridge starts one event loop per shard. inflight bounds each shard's
// queued-but-unanswered requests.
func newBridge(cl *anykey.Cluster, scale float64, timeout anykey.Duration,
	inflight int, met *serverMetrics) *Bridge {
	b := &Bridge{
		cl:        cl,
		scale:     scale,
		timeout:   timeout,
		wallEpoch: time.Now(),
		met:       met,
	}
	for s := 0; s < cl.Shards(); s++ {
		shard := strconv.Itoa(s)
		l := &shardLoop{shard: s, reqs: make(chan *request, inflight), shed: met.shed.With(shard)}
		b.loops = append(b.loops, l)
		met.inflight.WithFunc(func() float64 { return float64(len(l.reqs)) }, shard)
		b.wg.Add(1)
		go b.run(l)
	}
	return b
}

// virtualArrival maps a wall instant onto shard s's clock domain.
func (b *Bridge) virtualArrival(virtEpoch anykey.Time, wall time.Time) anykey.Time {
	elapsed := float64(wall.Sub(b.wallEpoch).Nanoseconds())
	if elapsed < 0 {
		elapsed = 0
	}
	return virtEpoch + anykey.Time(elapsed*b.scale)
}

// submit routes req to shard's loop without blocking. False means the
// loop's queue is full and the request was shed.
func (b *Bridge) submit(shard int, req *request) bool {
	l := b.loops[shard]
	select {
	case l.reqs <- req:
		return true
	default:
		l.shed.Inc()
		return false
	}
}

// close stops every loop after the remaining queued requests drain, then
// waits for the loops to exit. Callers must guarantee no further submit
// calls — the server does so by joining every connection handler first.
func (b *Bridge) close() {
	for _, l := range b.loops {
		close(l.reqs)
	}
	b.wg.Wait()
}

// run is one shard's event loop. The shard's series are resolved once, up
// front: a With per observation is a label join, the family's mutex and a
// map lookup, three times per storage operation.
func (b *Bridge) run(l *shardLoop) {
	defer b.wg.Done()
	shard := strconv.Itoa(l.shard)
	virtEpoch := b.cl.ShardNow(l.shard)
	var ops [numOps]*metrics.Counter
	for op, name := range opNames {
		ops[op] = b.met.ops.With(shard, name)
	}
	latency, queueWait := b.met.latency.With(shard), b.met.queueWait.With(shard)
	timeouts, opErrors := b.met.timeouts.With(shard), b.met.opErrors.With(shard)
	for req := range l.reqs {
		if req.hold != nil {
			if req.held != nil {
				close(req.held)
			}
			<-req.hold
		}
		arrival := b.virtualArrival(virtEpoch, req.wall)
		resp := b.execute(l.shard, arrival, req)

		if resp.err == nil {
			lat := resp.comp.Latency()
			ops[req.op].Inc()
			latency.Observe(lat.Seconds())
			queueWait.Observe(resp.comp.QueueWait().Seconds())
			if b.timeout > 0 && lat > b.timeout {
				resp.timedOut = true
				timeouts.Inc()
			}
		} else {
			opErrors.Inc()
		}
		req.resp <- resp
	}
}

// execute performs one operation against the cluster. Only the owning
// shard loop calls it for a given shard.
func (b *Bridge) execute(shard int, arrival anykey.Time, req *request) response {
	var resp response
	switch req.op {
	case opSet:
		comp, _, err := b.cl.PutAt(arrival, req.key, req.value)
		resp.comp, resp.err = comp, err
	case opGet:
		comp, _, err := b.cl.GetAt(arrival, req.key)
		resp.comp = comp
		switch {
		case err == nil:
			resp.found = true
			resp.value = append([]byte(nil), comp.Value...)
		case errors.Is(err, anykey.ErrNotFound):
			// A miss is a successful operation with a null reply.
		default:
			resp.err = err
		}
	case opDel:
		comp, _, err := b.cl.DeleteAt(arrival, req.key)
		resp.comp, resp.err = comp, err
	case opScan:
		comp, err := b.cl.ScanShardAt(shard, arrival, req.start, req.n)
		resp.comp, resp.err = comp, err
		if err == nil && len(comp.Pairs) > 0 {
			resp.pairs = make([]anykey.Pair, len(comp.Pairs))
			for i, p := range comp.Pairs {
				resp.pairs[i] = anykey.Pair{
					Key:   append([]byte(nil), p.Key...),
					Value: append([]byte(nil), p.Value...),
				}
			}
		}
	}
	return resp
}
