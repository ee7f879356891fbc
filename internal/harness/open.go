// Open-loop execution: requests arrive on the workload's arrival clock
// (workload.Arrivals) whether or not the device keeps up, the client times
// out attempts that miss its deadline and re-submits them with capped
// exponential backoff, and the run is scored by SLO goodput instead of raw
// throughput. This is the overload methodology: a closed loop throttles
// itself by construction, so only this path can show goodput collapse and
// metastable failure (retry amplification keeping a device saturated after
// the offered load drops).
//
// One event loop drives all three targets behind the openTarget interface:
// the single-device engine (its *At submission path), the single-copy
// cluster (per-shard *At submission) and the replicated fleet (per-replica
// arrival instants). All times inside the loop are relative to the
// execution epoch — each target adds its own clock-domain offset, which for
// a cluster is per member (member clocks are independent, so an op's
// end-to-end latency is only defined within one member's domain).
package harness

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/workload"
)

// OpenStats is the open-loop client's scorecard for one run.
type OpenStats struct {
	// Arrival echoes the offered process; Timeout and SLO the effective
	// client knobs (after defaults), so reports are self-describing.
	Arrival workload.ArrivalSpec
	Timeout anykey.Duration
	SLO     anykey.Duration

	Offered  int64 // fresh arrivals generated within the horizon
	Attempts int64 // device submissions, retries included
	Timeouts int64 // attempts that missed the client deadline
	Retries  int64 // re-submissions scheduled after timeouts
	Dropped  int64 // operations abandoned after the retry budget

	// Attempts the target rejected outright, with no completion: reads with
	// every owner dead (or the key unreadable on the survivors), writes that
	// missed their quorum. They re-enter the retry path like timeouts. Only
	// a replicated cluster produces them.
	ReadFailures  int64
	WriteFailures int64

	// Completed counts operations whose final attempt met the deadline;
	// GoodOps those that also met the end-to-end SLO (first arrival to
	// final completion). Goodput is GoodOps per simulated second of the
	// whole execution phase, drain included — under overload the drain
	// stretches and goodput collapses, which is the knee the storm
	// experiment sweeps for.
	Completed int64
	GoodOps   int64
	Goodput   float64

	// RecoverTime is how long the system needed to go idle after the last
	// fresh arrival: final completion time minus the end of the offered
	// stream. Post-burst recovery debt (GC, compaction, retry backlog)
	// shows up here.
	RecoverTime anykey.Duration
}

// openDone is one attempt's outcome in epoch-relative time.
type openDone struct {
	// failed marks an attempt the target rejected outright: a replicated
	// write short of its quorum, or a read with every owner dead or the key
	// unreadable on the survivors. No completion comes with it; the loop
	// sends the operation down the retry path, as it does after a timeout.
	failed  bool
	doneRel anykey.Time
	value   []byte
	pairs   int
	// tracer and epoch let the loop annotate the attempt's op record with
	// retry/timeout events in the target's absolute clock domain.
	tracer *anykey.Tracer
	epoch  anykey.Time
}

// openTarget submits one attempt arriving at rel (relative to the
// execution epoch) and returns its completion.
type openTarget interface {
	submit(rel anykey.Time, op workload.Op) (openDone, error)
}

// deviceTarget drives a single-device engine's *At path.
type deviceTarget struct {
	eng   *anykey.Engine
	tr    *anykey.Tracer
	epoch anykey.Time
}

func (t *deviceTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	at := t.epoch.Add(anykey.Duration(rel))
	var (
		comp anykey.Completion
		err  error
	)
	switch op.Kind {
	case workload.OpPut:
		comp, err = t.eng.PutAt(at, op.Key, op.Value)
	case workload.OpScan:
		comp, err = t.eng.ScanAt(at, op.Key, op.ScanLen)
	default:
		comp, err = t.eng.GetAt(at, op.Key)
	}
	if err != nil {
		return openDone{}, err
	}
	return openDone{
		doneRel: anykey.Time(comp.Done.Sub(t.epoch)),
		value:   comp.Value,
		pairs:   len(comp.Pairs),
		tracer:  t.tr,
		epoch:   t.epoch,
	}, nil
}

// clusterTarget drives a cluster's open-loop submission, single-copy or
// replicated. epochs holds each member's exec-start clock, and every
// instant is converted in one member's own domain. A single-copy op arrives
// at its shard's epoch + rel. A replicated op is offered to each replica at
// that replica's own epoch + rel, and its latency is taken in the domain of
// the member whose completion finished it: the serving replica of a read,
// the quorum-defining replica of a write.
type clusterTarget struct {
	cl       *anykey.Cluster
	epochs   []anykey.Time
	tracers  []*anykey.Tracer // nil when untraced
	shardOps []int64          // attempts per primary shard, founding shards only
	acks     []openDone       // scratch for ack
}

// adopt registers a member whose device was created at epoch-relative
// instant rel: a shard added mid-run, or a rebuilt shard's replacement. A
// new member's clock starts "now", so its epoch is back-dated to keep
// epoch+rel consistent with the founding members' domains; a replacement
// keeps its predecessor's epoch. Either has a tracer of its own.
func (t *clusterTarget) adopt(member int, rel anykey.Time) {
	if member == len(t.epochs) {
		e := t.cl.ShardNow(member).Add(-anykey.Duration(rel))
		if e < 0 {
			e = 0
		}
		t.epochs = append(t.epochs, e)
	}
	if t.tracers != nil {
		t.tracers = t.cl.Tracers()
	}
}

// done is a completion at instant abs of member's clock, in the loop's terms.
func (t *clusterTarget) done(member int, abs anykey.Time, value []byte) openDone {
	d := openDone{doneRel: anykey.Time(abs.Sub(t.epochs[member])), value: value, epoch: t.epochs[member]}
	if t.tracers != nil {
		d.tracer = t.tracers[member]
	}
	return d
}

func (t *clusterTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	if op.Kind == workload.OpScan {
		return openDone{}, errors.New("harness: cluster open loop has no scan path")
	}
	s := t.cl.ShardFor(op.Key)
	if s < len(t.shardOps) {
		t.shardOps[s]++
	}
	if t.cl.Replication().Factor >= 1 {
		return t.submitReplicated(rel, op)
	}
	at := t.epochs[s].Add(anykey.Duration(rel))
	var (
		comp anykey.Completion
		err  error
	)
	if op.Kind == workload.OpPut {
		comp, _, err = t.cl.PutAt(at, op.Key, op.Value)
	} else {
		comp, _, err = t.cl.GetAt(at, op.Key)
	}
	if err != nil {
		return openDone{}, err
	}
	return t.done(s, comp.Done, comp.Value), nil
}

func (t *clusterTarget) submitReplicated(rel anykey.Time, op workload.Op) (openDone, error) {
	arrival := func(member int) anykey.Time { return t.epochs[member].Add(anykey.Duration(rel)) }
	if op.Kind == workload.OpPut {
		res, err := t.cl.FleetPutAt(arrival, op.Key, op.Value)
		if err != nil {
			return openDone{}, err
		}
		if res.Err != nil {
			// Quorum not met or every replica down. Any replica that
			// executed keeps the data, so the loop also taints the key.
			return openDone{failed: true}, nil
		}
		return t.ack(res)
	}
	res, err := t.cl.FleetGetAt(arrival, op.Key)
	switch {
	case err != nil:
		return openDone{}, err
	case res.Err == nil:
		return t.done(res.Served, res.AckDone, res.Value), nil
	case errors.Is(res.Err, anykey.ErrShardDown) || errors.Is(res.Err, anykey.ErrNotFound):
		// Every owner dead, or the key unreadable on the survivors (an R=1
		// outage does both).
		return openDone{failed: true}, nil
	}
	return openDone{}, res.Err
}

// ack picks an acknowledged write's completion: the W-th earliest successful
// fully-alive replica completion, each taken in its own member's clock
// domain (the fleet's AckDone merges absolute clocks numerically, which
// cross-domain latency math can't use).
func (t *clusterTarget) ack(res anykey.FleetOpResult) (openDone, error) {
	acks := t.acks[:0]
	for _, ra := range res.Replicas {
		if ra.Err != nil {
			continue
		}
		if state, _, err := t.cl.ShardState(ra.Member); err != nil || state != "alive" {
			continue
		}
		// Replica counts are tiny; insertion sort, ties in walk order.
		d := t.done(ra.Member, ra.Comp.Done, nil)
		i := len(acks)
		for acks = append(acks, d); i > 0 && acks[i-1].doneRel > d.doneRel; i-- {
			acks[i] = acks[i-1]
		}
		acks[i] = d
	}
	t.acks = acks
	if len(acks) == 0 {
		return openDone{}, errors.New("harness: acked write with no alive replica completion")
	}
	return acks[min(t.cl.Replication().WriteQuorum, len(acks))-1], nil
}

// openHists routes completed-operation end-to-end latencies into the
// enclosing result's histograms (scan may be nil for cluster runs).
type openHists struct {
	read, write, scan *stats.Histogram
}

// pendingOp is a timed-out operation waiting to re-enter the arrival
// stream.
type pendingOp struct {
	at       anykey.Time // epoch-relative re-arrival time
	seq      int64       // fresh-arrival index, the deterministic tie-break
	attempt  int         // attempts already spent (≥ 1)
	firstRel anykey.Time // original arrival, for end-to-end latency
	op       workload.Op
}

// retryHeap orders pending retries by (time, seq). Fresh arrivals always
// carry a larger seq than any pending retry, so at equal instants retries
// re-enter the stream first — a fixed, documented rule that keeps the
// event order deterministic.
type retryHeap []pendingOp

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h retryHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)     { *h = append(*h, x.(pendingOp)) }
func (h *retryHeap) Pop() any       { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h retryHeap) peek() pendingOp { return h[0] }

// arrivalSeedOffset decouples the arrival clock's PRNG from the op-mix
// PRNG: both derive from BaseConfig.Seed, but an open-loop run must draw
// the exact key/op sequence a closed-loop run with the same seed draws.
const arrivalSeedOffset = 0x9E3779B9

// openLoop is the open-loop client: one event loop over an openTarget.
type openLoop struct {
	cfg   *BaseConfig
	gen   *workload.Generator
	tgt   openTarget
	hists openHists

	// beforeSubmit, when set, is called with the arrival-clock instant of
	// every event — fresh arrival or retry, so in non-decreasing order —
	// before that event is submitted. A scenario's schedule and its
	// background streams run from here.
	beforeSubmit func(now anykey.Time) error
	// completed, when set, observes every operation whose final attempt met
	// the deadline, after the loop has scored it.
	completed func(op *pendingOp, e2e anykey.Duration)

	// verified counts the fresh reads whose payload was checked.
	verified int64
	// tainted holds the keys whose version order the client broke: a put
	// that timed out re-executes after later fresh puts to the same key,
	// and a put that failed may have landed on some replicas, so the store
	// may legitimately hold an older version than the generator expects.
	// Reads of such keys skip payload verification.
	tainted map[uint64]struct{}
}

// run drives the open-loop execution phase. All bookkeeping is in
// epoch-relative virtual time; the caller computes Goodput once it knows
// the phase's total simulated seconds.
func (l *openLoop) run() (*OpenStats, error) {
	cfg, gen := l.cfg, l.gen
	arr, err := workload.NewArrivals(cfg.Workload.Arrival, cfg.Seed+arrivalSeedOffset)
	if err != nil {
		return nil, err
	}
	st := &OpenStats{Arrival: cfg.Workload.Arrival, Timeout: cfg.Timeout, SLO: cfg.SLO}
	horizon := anykey.Time(cfg.Horizon)
	l.tainted = make(map[uint64]struct{})

	var (
		pending      retryHeap
		nextFresh    = arr.Next()
		freshDone    = nextFresh > horizon
		lastFreshRel anykey.Time
		lastDoneRel  anykey.Time
	)
	// retry re-queues cur to re-arrive a backoff past its expired deadline
	// and reports the new attempt, or drops it once the budget is spent.
	retry := func(cur pendingOp) (pendingOp, bool) {
		if cur.op.Kind == workload.OpPut {
			l.tainted[cur.op.ID] = struct{}{}
		}
		if cur.attempt >= cfg.Retry.MaxRetries {
			st.Dropped++
			return cur, false
		}
		cur.attempt++
		cur.at = cur.at.Add(cfg.Timeout + cfg.Retry.delay(cur.attempt))
		st.Retries++
		heap.Push(&pending, cur)
		return cur, true
	}
	for {
		if freshDone || (cfg.MaxOps > 0 && st.Offered >= cfg.MaxOps) {
			freshDone = true
			if len(pending) == 0 {
				break
			}
		}
		// Pick the next event: the earliest of the retry queue and the
		// fresh stream; ties go to the retry (its seq is always smaller).
		var cur pendingOp
		if len(pending) > 0 && (freshDone || pending.peek().at <= nextFresh) {
			cur = heap.Pop(&pending).(pendingOp)
		} else {
			cur = pendingOp{at: nextFresh, seq: st.Offered, firstRel: nextFresh, op: gen.Next()}
			st.Offered++
			lastFreshRel = nextFresh
			if nextFresh = arr.Next(); nextFresh > horizon {
				freshDone = true
			}
		}
		if l.beforeSubmit != nil {
			if err := l.beforeSubmit(cur.at); err != nil {
				return nil, err
			}
		}

		done, err := l.tgt.submit(cur.at, cur.op)
		if err != nil {
			return nil, fmt.Errorf("harness: open-loop %v: %w", cur.op.Kind, err)
		}
		st.Attempts++
		if done.failed {
			if cur.op.Kind == workload.OpPut {
				st.WriteFailures++
			} else {
				st.ReadFailures++
			}
			retry(cur)
			continue
		}
		if done.doneRel > lastDoneRel {
			lastDoneRel = done.doneRel
		}
		seq := done.tracer.LastOpSeq()
		if cur.attempt > 0 {
			done.tracer.MarkAttempt(seq, int32(cur.attempt))
		}

		if lat := done.doneRel.Sub(cur.at); lat > cfg.Timeout {
			// Client deadline missed. The device still did the work — the
			// client cannot cancel an in-flight request, which is exactly
			// how retries amplify load under overload.
			st.Timeouts++
			deadline := done.epoch.Add(anykey.Duration(cur.at) + cfg.Timeout)
			done.tracer.OpSpan(trace.BGTrack(trace.CauseTimeout), trace.EvTimeout,
				trace.CauseTimeout, seq, deadline, deadline,
				done.epoch.Add(anykey.Duration(done.doneRel)), int64(cur.attempt))
			if next, ok := retry(cur); ok {
				at := done.epoch.Add(anykey.Duration(next.at))
				done.tracer.OpSpan(trace.BGTrack(trace.CauseRetry), trace.EvRetry,
					trace.CauseRetry, seq, at, at, at, int64(next.attempt))
			}
			continue
		}

		// Completed within the deadline: score end-to-end from the first
		// arrival, so retry delay counts against the SLO.
		st.Completed++
		e2e := done.doneRel.Sub(cur.firstRel)
		if e2e <= cfg.SLO {
			st.GoodOps++
		}
		switch cur.op.Kind {
		case workload.OpPut:
			l.hists.write.Record(e2e)
		case workload.OpScan:
			l.hists.scan.Record(e2e)
			if !cfg.NoVerify && done.pairs == 0 {
				return nil, errors.New("harness: open-loop scan returned nothing on a loaded device")
			}
		default:
			l.hists.read.Record(e2e)
			// Verify fresh reads of cleanly-ordered keys only: by a
			// retry's re-arrival the generator may have advanced the key's
			// version through later fresh writes, and a tainted key may
			// hold an older version than expected.
			if !cfg.NoVerify && cur.attempt == 0 {
				if _, tainted := l.tainted[cur.op.ID]; !tainted {
					if !bytes.Equal(done.value, gen.ExpectedValue(cur.op.ID)) {
						return nil, fmt.Errorf("harness: open-loop read of id %d returned wrong payload", cur.op.ID)
					}
					l.verified++
				}
			}
		}
		if l.completed != nil {
			l.completed(&cur, e2e)
		}
	}

	if d := lastDoneRel.Sub(lastFreshRel); d > 0 {
		st.RecoverTime = d
	}
	return st, nil
}
