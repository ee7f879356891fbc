package sim

// ClockSet is a fixed set of independent virtual clocks, one per host
// submission slot. It is the timing substrate of the host engine's
// queue-depth-N model: each slot's clock holds the completion time of the
// last request it carried, the earliest slot is the one that accepts the
// next request, and the set as a whole only ever hands out non-decreasing
// issue times (the contract every device.KVSSD implementation relies on).
//
// Slots are kept in a binary min-heap ordered by (time, slot), so Earliest
// — called once per simulated request — is O(1) and each clock advance is
// O(log n) instead of the former O(n) scan per request.
type ClockSet struct {
	clocks []Time
	heap   []int // slot indices, heap-ordered by (clocks[slot], slot)
	pos    []int // heap position of each slot
}

// NewClockSet returns n clocks, all at start.
func NewClockSet(n int, start Time) *ClockSet {
	cs := &ClockSet{
		clocks: make([]Time, n),
		heap:   make([]int, n),
		pos:    make([]int, n),
	}
	for i := range cs.clocks {
		cs.clocks[i] = start
		cs.heap[i] = i
		cs.pos[i] = i
	}
	return cs
}

// Len returns the number of clocks.
func (c *ClockSet) Len() int { return len(c.clocks) }

// less orders heap entries by (time, slot); the slot tie-break keeps the
// selection identical to the old lowest-index linear scan, so replays stay
// deterministic.
func (c *ClockSet) less(a, b int) bool {
	if c.clocks[a] != c.clocks[b] {
		return c.clocks[a] < c.clocks[b]
	}
	return a < b
}

func (c *ClockSet) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.pos[h[i]] = i
	c.pos[h[j]] = j
}

func (c *ClockSet) siftDown(i int) {
	h := c.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && c.less(h[r], h[l]) {
			m = r
		}
		if !c.less(h[m], h[i]) {
			return
		}
		c.swap(i, m)
		i = m
	}
}

// Earliest returns the slot with the smallest clock and its time. Ties go
// to the lowest index, which keeps replays deterministic.
func (c *ClockSet) Earliest() (slot int, at Time) {
	slot = c.heap[0]
	return slot, c.clocks[slot]
}

// Set advances one clock; it refuses to move a clock backwards.
func (c *ClockSet) Set(slot int, at Time) {
	if at > c.clocks[slot] {
		c.clocks[slot] = at
		c.siftDown(c.pos[slot])
	}
}

// Max returns the latest clock.
func (c *ClockSet) Max() Time {
	var m Time
	for _, t := range c.clocks {
		if t > m {
			m = t
		}
	}
	return m
}

// AlignToMax moves every clock to the latest one and returns it — the
// phase barrier between an experiment's warm-up and execution.
func (c *ClockSet) AlignToMax() Time {
	m := c.Max()
	c.AlignTo(m)
	return m
}

// AlignTo raises every clock behind t to t, as if its slot had sat idle
// until then; clocks already past t keep their time.
func (c *ClockSet) AlignTo(t Time) {
	for i, at := range c.clocks {
		if at < t {
			c.clocks[i] = t
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
}
