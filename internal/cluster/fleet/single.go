package fleet

import (
	"fmt"

	"anykey/internal/cluster"
	"anykey/internal/host"
	"anykey/internal/sim"
)

// The single-copy result shape. Callers that drive a cluster without caring
// whether it replicates (the public facade, the transaction layer) use the
// same *OneAt and Multi* methods cluster.Cluster has; here each runs the
// replicated operation and summarises its OpResult as one representative
// completion, the primary shard, and the operation verdict.

// completion picks one representative host completion out of a replicated
// result: a read's serving replica, a write's quorum-defining replica (the
// one whose Done is the acknowledgment instant), or — on failure — the latest
// attempt, so callers still see the op's span.
func (res OpResult) completion() host.Completion {
	if res.Served >= 0 {
		for _, ra := range res.Replicas {
			if ra.Member == res.Served {
				comp := ra.Comp
				comp.Value = res.Value
				return comp
			}
		}
	}
	if res.Acked {
		for _, ra := range res.Replicas {
			if ra.Err == nil && ra.Comp.Done == res.AckDone {
				return ra.Comp
			}
		}
	}
	var best host.Completion
	for _, ra := range res.Replicas {
		if ra.Comp.Done >= best.Done {
			best = ra.Comp
		}
	}
	return best
}

// primary is the head of the owner walk — the shard a single-copy cluster
// would have routed to.
func (res OpResult) primary() int {
	if len(res.Owners) > 0 {
		return res.Owners[0]
	}
	return 0
}

// single summarises the result in the single-copy shape.
func (res OpResult) single() (host.Completion, int, error) {
	return res.completion(), res.primary(), res.Err
}

// constArrival maps one client arrival instant onto every replica's clock
// domain: the same numeric instant in each — domains are independent, so
// "the request reaches all replicas at t" is exactly the fan-out a
// replicating front end performs.
func constArrival(at sim.Time) ArrivalFunc {
	return func(int) sim.Time { return at }
}

// PutOneAt is Put in the single-copy result shape: one arrival instant —
// host.WhenFree for the closed loop — fanned out to every replica (see
// constArrival).
func (f *Fleet) PutOneAt(arrival sim.Time, key, value []byte) (host.Completion, int, error) {
	return f.PutAt(constArrival(arrival), key, value).single()
}

// GetOneAt is Get in the single-copy result shape; the value belongs to the
// caller.
func (f *Fleet) GetOneAt(arrival sim.Time, key []byte) (host.Completion, int, error) {
	return f.GetAt(constArrival(arrival), key).single()
}

// DeleteOneAt is Delete in the single-copy result shape.
func (f *Fleet) DeleteOneAt(arrival sim.Time, key []byte) (host.Completion, int, error) {
	return f.write(constArrival(arrival), key, nil, true).single()
}

// MultiPut stores keys[i] → values[i] for every i on its full replica set.
func (f *Fleet) MultiPut(keys, values [][]byte) (*cluster.BatchResult, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("fleet: MultiPut with %d keys and %d values", len(keys), len(values))
	}
	return f.batch(len(keys), func(i int) OpResult { return f.Put(keys[i], values[i]) }), nil
}

// MultiGet reads every key, read-one with fallback; values are caller-owned.
func (f *Fleet) MultiGet(keys [][]byte) (*cluster.BatchResult, error) {
	return f.batch(len(keys), func(i int) OpResult { return f.Get(keys[i]) }), nil
}

// MultiDelete removes every key on its full replica set.
func (f *Fleet) MultiDelete(keys [][]byte) (*cluster.BatchResult, error) {
	return f.batch(len(keys), func(i int) OpResult { return f.write(nil, keys[i], nil, true) }), nil
}

// batch runs a replicated batch one key at a time (replica fan-out happens
// inside each op) and reassembles the cluster batch shape: the representative
// completion, the primary shard, and the op verdict per input, with the batch
// span merged over every replica attempt.
func (f *Fleet) batch(n int, op func(i int) OpResult) *cluster.BatchResult {
	out := &cluster.BatchResult{
		Completions: make([]host.Completion, n),
		Shards:      make([]int, n),
		Errs:        make([]error, n),
		Start:       f.Now(),
	}
	for i := 0; i < n; i++ {
		res := op(i)
		out.Completions[i] = res.completion()
		out.Shards[i] = res.primary()
		out.Errs[i] = res.Err
		for _, ra := range res.Replicas {
			if ra.Comp.Done > out.Done {
				out.Done = ra.Comp.Done
			}
		}
	}
	return out
}
