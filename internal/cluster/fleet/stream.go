package fleet

import (
	"fmt"

	"anykey/internal/cluster"
	"anykey/internal/host"
	"anykey/internal/kv"
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

	each   func(src int32, p pairCopy) (copied bool, err error)
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
		maxKeys = f.chunk
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

		m := f.Shard(int(src))
		m.Mu.Lock()
		alive := m.State == cluster.ShardAlive
		var pairs []pairCopy
		var err error
		if alive {
			var comp host.Completion
			if comp, err = m.Eng.Scan(start, f.chunk); err == nil {
				pairs = copyPairs(comp.Pairs)
			}
		}
		m.Mu.Unlock()
		if err != nil {
			return false, fmt.Errorf("fleet: %s scan on member %d: %w", s.what, src, err)
		}

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
			s.next = append(append([]byte(nil), pairs[len(pairs)-1].key...), 0)
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

type pairCopy struct{ key, value []byte }

// copyPairs snapshots scan results out of device-owned buffers: streaming
// touches other members between scans, which would invalidate them.
func copyPairs(pairs []kv.Pair) []pairCopy {
	out := make([]pairCopy, len(pairs))
	for i, p := range pairs {
		out[i] = pairCopy{
			key:   append([]byte(nil), p.Key...),
			value: append([]byte(nil), p.Value...),
		}
	}
	return out
}

// alive reports whether member id is alive right now.
func (f *Fleet) alive(id int32) bool {
	m := f.Shard(int(id))
	m.Mu.Lock()
	defer m.Mu.Unlock()
	return m.State == cluster.ShardAlive
}

// aliveOfLocked filters ids down to alive members. Callers hold f.mu.
func (f *Fleet) aliveOfLocked(ids []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if f.alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// firstAlive returns the first alive member of an owner walk, -1 when none:
// the one coordinator per key that lets R replica scans dedupe
// deterministically.
func (f *Fleet) firstAlive(ids []int32) int32 {
	for _, id := range ids {
		if f.alive(id) {
			return id
		}
	}
	return -1
}
