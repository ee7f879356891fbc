package fleet

import (
	"errors"
	"fmt"
	"slices"

	"anykey/internal/cluster"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/trace"
)

// stream is the steppable key-streaming job behind both a topology
// migration and a device rebuild: scan every source member chunk by chunk,
// hand each scanned pair to each — which applies the one-coordinator-per-key
// rule and reports whether it copied the key — and commit once every source
// has drained.
type stream struct {
	f    *Fleet
	what string // "migration" or "rebuild", for error text

	// The cursor (guarded by f.mu): the source members, the one being
	// scanned, and the next start key on it.
	sources []int32
	srcIdx  int
	next    []byte
	done    bool

	each   func(src int32, p kv.Pair) (copied bool, err error)
	commit func() // runs once, under f.mu, when the last source drains
}

// Done reports whether the job has committed.
func (s *stream) Done() bool {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	return s.done
}

// Step streams up to maxKeys keys (≤ 0 means one scan chunk) and returns
// true once the job has committed. Safe to interleave with client traffic:
// the ring already routes writes to every owner that must see them, and
// reads resolve through the fallback walk.
func (s *stream) Step(maxKeys int) (bool, error) {
	f := s.f
	if maxKeys <= 0 {
		maxKeys = scanChunk
	}
	for processed := 0; processed < maxKeys; {
		f.mu.Lock()
		if !s.done && s.srcIdx >= len(s.sources) {
			s.commit()
			s.done = true
		}
		if s.done {
			f.mu.Unlock()
			return true, nil
		}
		src, start := s.sources[s.srcIdx], s.next
		f.mu.Unlock()

		// A member that is no longer alive yields no pairs.
		scan := cluster.Request{Kind: trace.OpScan, Arrival: host.WhenFree, Key: start, Limit: scanChunk, Stream: true}
		comp, _, err := f.Shard(int(src)).Do(scan, cluster.Serving)
		alive := !errors.Is(err, ErrShardDown)
		if alive && err != nil {
			return false, fmt.Errorf("fleet: %s scan on member %d: %w", s.what, src, err)
		}
		pairs := comp.Pairs

		f.mu.Lock()
		if alive {
			f.stats.MigrationOps++
		}
		if len(pairs) == 0 {
			// Source finished — or died mid-stream, in which case its
			// replicas carry the same keys and coordinate them when their
			// own scans reach them.
			s.srcIdx++
			s.next = nil
		} else {
			s.next = append(append([]byte(nil), pairs[len(pairs)-1].Key...), 0)
		}
		f.mu.Unlock()

		for _, p := range pairs {
			copied, err := s.each(src, p)
			if err != nil {
				return false, err
			}
			if copied {
				processed++
			}
		}
	}
	return false, nil
}

// Run steps the job to completion.
func (s *stream) Run() error {
	for {
		done, err := s.Step(0)
		if err != nil || done {
			return err
		}
	}
}

// alive reports whether member id is alive right now.
func (f *Fleet) alive(id int32) bool {
	st, _ := f.Shard(int(id)).State()
	return st == cluster.ShardAlive
}

// aliveOfLocked filters ids down to alive members. Callers hold f.mu.
func (f *Fleet) aliveOfLocked(ids []int32) []int32 {
	return slices.DeleteFunc(slices.Clone(ids), func(id int32) bool { return !f.alive(id) })
}

// firstAlive returns the first alive member of an owner walk, -1 when none:
// the one coordinator per key that lets R replica scans dedupe
// deterministically.
func (f *Fleet) firstAlive(ids []int32) int32 {
	if i := slices.IndexFunc(ids, f.alive); i >= 0 {
		return ids[i]
	}
	return -1
}
