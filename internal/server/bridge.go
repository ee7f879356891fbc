package server

import (
	"errors"
	"strconv"
	"sync/atomic"
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

// request is one storage operation of a client command. Wall is the real
// instant the connection handler accepted the command — the bridge maps it
// onto the owning shard's virtual clock. Admitted records that the request
// holds one of its shard's inflight slots; Bridge.do gives it back.
type request struct {
	op       opKind
	key      []byte
	value    []byte
	start    []byte // scan: first key
	n        int    // scan: max pairs
	wall     time.Time
	shard    int
	admitted bool
}

// response is the outcome of one request. The completion's Value and Pairs
// belong to the caller: the cluster copies them out of the device under the
// shard lock. A Get's Value is nil exactly when the key is absent.
type response struct {
	comp     anykey.Completion
	err      error
	timedOut bool // virtual latency exceeded the configured timeout
}

// Bridge maps wall-clock request arrivals onto per-shard virtual clock
// domains and bounds how much work a shard may have outstanding. It owns no
// goroutine: a connection handler admits its request, then runs it on its
// own goroutine through the cluster's open-loop *At calls. What keeps a
// shard's engine and tracer single-caller is the cluster's per-shard lock,
// which every way into the shard takes — these plain commands, INCR/CAS/EXEC
// through the transaction layer, a replicated write arriving for another
// shard's key, a metrics scrape.
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
// Backpressure is a per-shard count of admitted-but-unanswered requests:
// admit never blocks, and the caller sheds with a RESP -BUSY when the shard
// already holds its bound — so at most that many requests ever wait on one
// shard's lock. Timeouts are virtual: a completion whose simulated latency
// exceeds the configured budget reports timedOut and the connection answers
// -TIMEOUT, mirroring the open-loop harness's timeout accounting.
type Bridge struct {
	cl      *anykey.Cluster
	scale   float64
	timeout anykey.Duration // virtual latency budget; 0 = unlimited
	bound   int64           // admitted-but-unanswered requests allowed per shard

	wallEpoch time.Time
	shards    []shardState
}

// shardState is one shard's side of the bridge: its clock epoch, its
// inflight count, and its series, resolved once — a With per
// observation is a label join, the family's mutex and a map lookup, three
// times per storage operation.
type shardState struct {
	virtEpoch anykey.Time
	inflight  atomic.Int64

	ops                [numOps]*metrics.Counter
	latency, queueWait *metrics.Histogram
	timeouts, opErrors *metrics.Counter
	shed               *metrics.Counter
}

// newBridge reads the clock epochs and resolves every shard's series.
// inflight bounds each shard's admitted-but-unanswered requests.
func newBridge(cl *anykey.Cluster, scale float64, timeout anykey.Duration,
	inflight int, met *serverMetrics) *Bridge {
	b := &Bridge{
		cl:        cl,
		scale:     scale,
		timeout:   timeout,
		bound:     int64(inflight),
		wallEpoch: time.Now(),
		shards:    make([]shardState, cl.Shards()),
	}
	for s := range b.shards {
		st := &b.shards[s]
		shard := strconv.Itoa(s)
		st.virtEpoch = cl.ShardNow(s)
		for op, name := range opNames {
			st.ops[op] = met.ops.With(shard, name)
		}
		st.latency, st.queueWait = met.latency.With(shard), met.queueWait.With(shard)
		st.timeouts, st.opErrors = met.timeouts.With(shard), met.opErrors.With(shard)
		st.shed = met.shed.With(shard)
		met.inflight.WithFunc(func() float64 { return float64(st.inflight.Load()) }, shard)
	}
	return b
}

// virtualArrival maps a wall instant onto the clock domain whose epoch is
// virtEpoch.
func (b *Bridge) virtualArrival(virtEpoch anykey.Time, wall time.Time) anykey.Time {
	elapsed := float64(wall.Sub(b.wallEpoch).Nanoseconds())
	if elapsed < 0 {
		elapsed = 0
	}
	return virtEpoch + anykey.Time(elapsed*b.scale)
}

// admit takes one of shard's inflight slots without blocking. False means
// the shard is full and the request is shed; true must be paired with one
// release.
func (b *Bridge) admit(shard int) bool {
	st := &b.shards[shard]
	if st.inflight.Add(1) > b.bound {
		st.inflight.Add(-1)
		st.shed.Inc()
		return false
	}
	return true
}

func (b *Bridge) release(shard int) { b.shards[shard].inflight.Add(-1) }

// do executes one admitted request on the caller's goroutine, records its
// outcome in the shard's series and gives the inflight slot back.
func (b *Bridge) do(req *request) response {
	st := &b.shards[req.shard]
	resp := b.execute(b.virtualArrival(st.virtEpoch, req.wall), req)
	b.release(req.shard)

	if resp.err != nil {
		st.opErrors.Inc()
		return resp
	}
	lat := resp.comp.Latency()
	st.ops[req.op].Inc()
	st.latency.Observe(lat.Seconds())
	st.queueWait.Observe(resp.comp.QueueWait().Seconds())
	if b.timeout > 0 && lat > b.timeout {
		resp.timedOut = true
		st.timeouts.Inc()
	}
	return resp
}

// execute performs one operation against the cluster, which takes the
// owning shard's lock.
func (b *Bridge) execute(arrival anykey.Time, req *request) response {
	var resp response
	switch req.op {
	case opSet:
		resp.comp, _, resp.err = b.cl.PutAt(arrival, req.key, req.value)
	case opGet:
		resp.comp, _, resp.err = b.cl.GetAt(arrival, req.key)
		if errors.Is(resp.err, anykey.ErrNotFound) {
			resp.err = nil // a miss is a successful operation with a null reply
		}
	case opDel:
		resp.comp, _, resp.err = b.cl.DeleteAt(arrival, req.key)
	case opScan:
		resp.comp, resp.err = b.cl.ScanShardAt(req.shard, arrival, req.start, req.n)
	}
	return resp
}
