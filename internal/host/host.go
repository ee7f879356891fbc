// Package host models the host side of the KV-SSD command path: an
// NVMe-style submission/completion engine that drives a device.KVSSD at a
// configurable queue depth. The paper's whole evaluation (§5) runs at queue
// depth 64; the engine makes that concurrency a first-class subsystem
// instead of a benchmark-script detail.
//
// The engine owns one virtual clock per submission slot. A request is
// carried by the slot that frees earliest (ties to the lowest slot, so runs
// are deterministic), and the engine — not its callers — enforces the
// device contract that operations are issued at non-decreasing times. At
// queue depth 1 the engine degenerates to the classic closed loop: each
// request is issued the instant the previous one completes.
//
// Every request carries an arrival instant, and there is one submission
// path (PutAt, GetAt, DeleteAt, ScanAt):
//
//   - An explicit arrival is the open loop: the request comes from a rate
//     generator; if every slot is busy past the arrival it queues, and the
//     completion records how long.
//   - WhenFree is the closed loop: the request is generated the moment a
//     slot frees, so it never queues. This is the paper's methodology — N
//     closed-loop workers — and the harness's mode. Put, Get, Delete and
//     Scan are the *At forms at WhenFree.
//
// Every completion carries the arrival/issue/done instants, so the
// per-operation latency splits into queue wait (arrival→issue) and device
// service (issue→done); the engine aggregates both into stats histograms.
package host

import (
	"errors"
	"fmt"
	"math"

	"anykey/internal/device"
	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/trace"
)

// Completion is the host-visible outcome of one request: when it arrived,
// when a slot issued it to the device, when the device finished, and any
// returned data.
type Completion struct {
	// Slot is the submission slot that carried the request.
	Slot int
	// Arrival is when the host generated the request. Closed-loop requests
	// arrive exactly when their slot frees, so Arrival == Issued.
	Arrival sim.Time
	// Issued is when the request entered the device.
	Issued sim.Time
	// Done is when the device completed it.
	Done sim.Time

	// Value is the payload of a Get; Pairs the results of a Scan.
	Value []byte
	Pairs []kv.Pair
}

// Latency is the end-to-end request latency (arrival to completion).
func (c Completion) Latency() sim.Duration { return c.Done.Sub(c.Arrival) }

// QueueWait is the time spent waiting for a free submission slot.
func (c Completion) QueueWait() sim.Duration { return c.Issued.Sub(c.Arrival) }

// Service is the time the device spent on the request.
func (c Completion) Service() sim.Duration { return c.Done.Sub(c.Issued) }

// Clock is a device's clock: the latest completion of every engine built
// on it. Engines over one device share one, so an engine that sat idle
// while the others ran can resume where they left off (CatchUp).
type Clock struct{ now sim.Time }

// Now returns the latest completion of any engine sharing the clock.
func (c *Clock) Now() sim.Time { return c.now }

// Engine drives one device at a fixed queue depth.
type Engine struct {
	dev       device.KVSSD
	clocks    *sim.ClockSet
	clock     *Clock // the device clock, shared with the device's other engines
	lastIssue sim.Time
	ops       int64
	tr        *trace.Tracer

	queueWait stats.Histogram
	service   stats.Histogram
}

// New returns an engine of the given queue depth whose clocks start at the
// simulation epoch.
func New(dev device.KVSSD, depth int) (*Engine, error) {
	return NewAt(dev, depth, 0)
}

// NewAt starts the engine's clocks at an explicit time — used when an
// engine takes over a device whose clock has already advanced. The engine
// is the only one on its device clock.
func NewAt(dev device.KVSSD, depth int, start sim.Time) (*Engine, error) {
	return NewOn(dev, depth, &Clock{now: start})
}

// NewOn returns an engine that shares clock with the device's other
// engines: its slots start at the clock's time, and each of its
// completions advances it.
func NewOn(dev device.KVSSD, depth int, clock *Clock) (*Engine, error) {
	if dev == nil {
		return nil, errors.New("host: nil device")
	}
	if depth < 1 {
		return nil, fmt.Errorf("host: queue depth %d; need at least 1", depth)
	}
	start := clock.now
	return &Engine{dev: dev, clocks: sim.NewClockSet(depth, start), clock: clock, lastIssue: start}, nil
}

// CatchUp raises every slot of e that is behind the device clock to it, as
// if the slot had sat idle while the device's other engines ran, so e's
// next request is not issued in their past. It is a function rather than a
// method so that the public Engine type does not grow.
func CatchUp(e *Engine) { e.clocks.AlignTo(e.clock.now) }

// SetTracer attaches an event tracer recording op lifecycles (nil
// detaches). The same tracer should be attached to the device underneath so
// its flash events link to the ops recorded here.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tr = tr }

// Depth returns the engine's queue depth.
func (e *Engine) Depth() int { return e.clocks.Len() }

// Now returns the latest completion time across all slots.
func (e *Engine) Now() sim.Time { return e.clocks.Max() }

// Ops returns the number of requests completed since creation.
func (e *Engine) Ops() int64 { return e.ops }

// Barrier waits for every in-flight request and aligns all slot clocks to
// the latest completion, which it returns. Experiments place one between
// their warm-up and measurement phases.
func (e *Engine) Barrier() sim.Time { return e.clocks.AlignToMax() }

// Breakdown returns copies of the queue-wait and device-service histograms
// accumulated since creation or the last ResetBreakdown.
func (e *Engine) Breakdown() (queueWait, service stats.Histogram) {
	return e.queueWait, e.service
}

// ResetBreakdown clears the latency-breakdown histograms (e.g. so a
// measurement phase excludes warm-up).
func (e *Engine) ResetBreakdown() {
	e.queueWait = stats.Histogram{}
	e.service = stats.Histogram{}
}

// WhenFree is the arrival of a closed-loop request: it arrives the instant
// the slot that carries it frees, so it never queues.
const WhenFree sim.Time = math.MinInt64

// submit carries one request through a slot. A request arriving at an
// explicit instant may queue; one arriving WhenFree arrives when the chosen
// slot frees. This is the single place the non-decreasing-time device
// contract is enforced.
func (e *Engine) submit(kind trace.OpKind, arrival sim.Time, do func(at sim.Time) (sim.Time, error)) (Completion, error) {
	slot, issue := e.clocks.Earliest()
	if arrival > issue {
		issue = arrival // device idle before the request even arrives
	}
	if issue < e.lastIssue {
		// Open-loop arrivals may run behind the issue watermark; the device
		// requires non-decreasing times, so late arrivals issue at it.
		issue = e.lastIssue
	}
	if arrival == WhenFree {
		arrival = issue
	}
	seq := e.tr.BeginOp(kind, slot, arrival, issue)
	done, err := do(issue)
	if done < issue {
		done = issue // a device must not complete before the issue instant
	}
	e.tr.EndOp(seq, done, err != nil)
	e.clocks.Set(slot, done)
	e.clock.now = max(e.clock.now, done)
	e.lastIssue = issue
	e.ops++
	e.queueWait.Record(issue.Sub(arrival))
	e.service.Record(done.Sub(issue))
	return Completion{Slot: slot, Arrival: arrival, Issued: issue, Done: done}, err
}

// Put stores a pair through the earliest-free slot (closed loop).
func (e *Engine) Put(key, value []byte) (Completion, error) { return e.PutAt(WhenFree, key, value) }

// Get reads a key through the earliest-free slot (closed loop). The value
// slice is owned by the device and valid until the next operation.
func (e *Engine) Get(key []byte) (Completion, error) { return e.GetAt(WhenFree, key) }

// Delete removes a key through the earliest-free slot (closed loop).
func (e *Engine) Delete(key []byte) (Completion, error) { return e.DeleteAt(WhenFree, key) }

// Scan runs a range query through the earliest-free slot (closed loop).
func (e *Engine) Scan(start []byte, n int) (Completion, error) { return e.ScanAt(WhenFree, start, n) }

// PutAt stores a pair arriving at the given time (or WhenFree); it queues
// if every slot is busy past the arrival.
func (e *Engine) PutAt(arrival sim.Time, key, value []byte) (Completion, error) {
	return e.submit(trace.OpPut, arrival, func(at sim.Time) (sim.Time, error) {
		return e.dev.Put(at, key, value)
	})
}

// GetAt is the Get arriving at the given time.
func (e *Engine) GetAt(arrival sim.Time, key []byte) (Completion, error) {
	var v []byte
	c, err := e.submit(trace.OpGet, arrival, func(at sim.Time) (done sim.Time, err error) {
		v, done, err = e.dev.Get(at, key)
		return done, err
	})
	c.Value = v
	return c, err
}

// DeleteAt is the Delete arriving at the given time.
func (e *Engine) DeleteAt(arrival sim.Time, key []byte) (Completion, error) {
	return e.submit(trace.OpDelete, arrival, func(at sim.Time) (sim.Time, error) {
		return e.dev.Delete(at, key)
	})
}

// ScanAt is the Scan arriving at the given time.
func (e *Engine) ScanAt(arrival sim.Time, start []byte, n int) (Completion, error) {
	var ps []kv.Pair
	c, err := e.submit(trace.OpScan, arrival, func(at sim.Time) (done sim.Time, err error) {
		ps, done, err = e.dev.Scan(at, start, n)
		return done, err
	})
	c.Pairs = ps
	return c, err
}

// Sync drains the queue (a barrier) and issues the device FLUSH, leaving
// every slot at its completion time.
func (e *Engine) Sync() (Completion, error) {
	at := e.Barrier()
	if at < e.lastIssue {
		at = e.lastIssue
	}
	seq := e.tr.BeginOp(trace.OpSync, 0, at, at)
	done, err := e.dev.Sync(at)
	if done < at {
		done = at
	}
	e.tr.EndOp(seq, done, err != nil)
	e.clocks.AlignTo(done)
	e.clock.now = max(e.clock.now, done)
	e.lastIssue = at
	e.ops++
	return Completion{Arrival: at, Issued: at, Done: done}, err
}
