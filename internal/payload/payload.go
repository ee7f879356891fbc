// Package payload is the seed-deterministic value-byte generator shared by
// the workload layer and the flash array's flyweight page store.
//
// Every value the benchmark workloads write is a pure function of a 64-bit
// seed (an xorshift64* stream), so retaining the bytes of a programmed page
// is redundant: a page image can be stored as a skeleton with the recognised
// value ranges excised, and the excised bytes regenerated on demand. This
// package provides the two halves of that contract:
//
//   - Fill/State: the PRNG itself. State supports resuming mid-stream, which
//     lets a value that spans flash pages (value-log fragment chains) be
//     excised from each page independently.
//
//   - the intern registry: a bounded, content-keyed table mapping a value's
//     first bytes to the seed that generates it. The workload generator
//     Notes every value it emits; the flyweight store Looks candidate ranges
//     up at program time. Every lookup is verified by full regeneration
//     (VerifyFrom), so hash collisions, evicted entries or misparsed pages
//     can only cost memory (the range stays in the skeleton), never bytes.
//
// The registry is process-global and safe for concurrent use. It stays
// completely inert (one atomic load per Note) until a flyweight store calls
// Enable, so raw-mode simulations pay nothing.
package payload

import (
	"sync/atomic"

	"anykey/internal/xxhash"
)

// State is a point in an xorshift64* byte stream. The zero State is invalid;
// streams start at Start(seed).
type State uint64

// Start returns the stream state for seed. Note that Start(uint64(Start(s)))
// == Start(s): a state at the beginning of a stream is itself a valid seed
// for the same stream, which lets materialised values re-register under
// their resumed state.
func Start(seed uint64) State { return State(seed | 1) }

// Fill writes the next len(dst) bytes of the stream into dst and returns the
// advanced state. The bytes are exactly those of the historical serial
// recurrence (fillReference in the tests), so golden checksums are
// unchanged; only the order of the arithmetic differs. Whole rounds run on
// independent lanes (see laneBytes); the remainder runs serially.
func (s State) Fill(dst []byte) State {
	x := uint64(s)
	for len(dst) >= round {
		x = fillRound((*[round]byte)(dst), x)
		dst = dst[round:]
	}
	for i := range dst {
		x = step(x)
		dst[i] = out(x)
	}
	return State(x)
}

// VerifyFrom reports whether b is exactly the next len(b) bytes of the
// stream at s, and returns the state after them (the state Fill would
// return). It allocates nothing and exits at the first mismatching round.
func (s State) VerifyFrom(b []byte) (State, bool) {
	x := uint64(s)
	if len(b) >= round {
		// Declared in here so that short checks do not pay for zeroing it.
		var buf [round]byte
		for len(b) >= round {
			x = fillRound(&buf, x)
			if buf != [round]byte(b) {
				return 0, false
			}
			b = b[round:]
		}
	}
	for _, c := range b {
		x = step(x)
		if out(x) != c {
			return 0, false
		}
	}
	return State(x), true
}

// --- lane kernel ----------------------------------------------------------

// xorshift64 is linear over GF(2): the state laneBytes steps after x is
// M^laneBytes·x for a fixed 64×64 bit matrix M, which jump applies as eight
// table lookups. A round splits 4·laneBytes consecutive stream bytes into
// four lanes; lane k starts at lane k-1's start jumped ahead and runs
// independently, so the four dependency chains that bound the serial
// recurrence overlap in the CPU. Lane k's end state is lane k+1's start, so
// the last lane ends where the round ends and a round costs three jumps.
//
// Geometry, chosen by measurement on amd64: four lanes of 64 bytes run the
// stream at about twice the serial rate; eight lanes outgrow the register
// file, spill, and run slower than four. Fills shorter than a round (every
// key, every low-v/k value) never enter the kernel.
const (
	laneBytes = 64
	round     = 4 * laneBytes
)

// jumpTable[i][b] is M^laneBytes applied to b<<(8i); by linearity, the jump
// of x is the XOR of the entries of its eight bytes.
var jumpTable = func() (t [8][256]uint64) {
	for i := range t {
		for b := range t[i] {
			x := uint64(b) << (8 * i)
			for n := 0; n < laneBytes; n++ {
				x = step(x)
			}
			t[i][b] = x
		}
	}
	return t
}()

// step is one xorshift64 transition; out is the byte emitted after it.
func step(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

func out(x uint64) byte { return byte((x * 0x2545F4914F6CDD1D) >> 56) }

// jump returns the state laneBytes steps after x.
func jump(x uint64) uint64 {
	return jumpTable[0][byte(x)] ^ jumpTable[1][byte(x>>8)] ^
		jumpTable[2][byte(x>>16)] ^ jumpTable[3][byte(x>>24)] ^
		jumpTable[4][byte(x>>32)] ^ jumpTable[5][byte(x>>40)] ^
		jumpTable[6][byte(x>>48)] ^ jumpTable[7][byte(x>>56)]
}

// fillRound writes one round starting at state x0 and returns the state
// after it.
func fillRound(d *[round]byte, x0 uint64) uint64 {
	x1 := jump(x0)
	x2 := jump(x1)
	x3 := jump(x2)
	for j := 0; j < laneBytes; j++ {
		x0 = step(x0)
		d[j] = out(x0)
		x1 = step(x1)
		d[laneBytes+j] = out(x1)
		x2 = step(x2)
		d[2*laneBytes+j] = out(x2)
		x3 = step(x3)
		d[3*laneBytes+j] = out(x3)
	}
	return x3
}

// Fill writes the deterministic byte string of seed into dst.
func Fill(dst []byte, seed uint64) { Start(seed).Fill(dst) }

// --- intern registry ------------------------------------------------------

// PrefixLen is the number of leading value bytes that key the registry.
// Keying on a short prefix (rather than the whole value) lets a value-log
// first fragment — a strict prefix of the full value — resolve to the same
// entry the full value registered. Collisions are harmless: lookups hand out
// candidate seeds that callers must verify by regeneration.
const PrefixLen = 16

// MinLookup is the shortest byte range worth interning: ranges shorter than
// PrefixLen cannot be keyed, and excising a range much smaller than a splice
// record would grow the flyweight representation.
const MinLookup = 24

// regBits sizes the direct-mapped registry: 1<<regBits entries of 16 bytes.
// The registry only has to cover the window between a value's generation
// (Note) and its landing on flash (Lookup at program time) — bounded by the
// write buffer — plus values re-registered when a page is materialised for
// compaction. 2^20 entries make collisions within that window negligible at
// any geometry while costing 16 MiB once enabled.
const regBits = 20

var (
	enabled atomic.Bool

	// Direct-mapped table, two parallel word arrays accessed with atomics.
	// A torn (hash from one writer, seed from another) entry is indistin-
	// guishable from a collision and fails verification downstream, so no
	// locking is needed.
	regHash [1 << regBits]atomic.Uint64
	regSeed [1 << regBits]atomic.Uint64
)

// Enable turns the registry on. Called by the first flyweight store; never
// turned off (a raw-mode device opened later is unaffected by a live
// registry).
func Enable() { enabled.Store(true) }

// Enabled reports whether any flyweight store has enabled interning.
func Enabled() bool { return enabled.Load() }

// prefixKey hashes the first PrefixLen bytes of v. Callers guarantee
// len(v) >= PrefixLen. The hash must be process-independent (no per-process
// seed): which prefixes collide decides which registry entries evict each
// other, and an evicted entry means the flyweight store keeps those value
// bytes verbatim — harmless for correctness, but it would make reported
// resident bytes vary across otherwise identical runs.
func prefixKey(v []byte) uint64 {
	p := v[:PrefixLen]
	h := uint64(xxhash.Sum32Seed(p, 0x9E3779B9))<<32 | uint64(xxhash.Sum32Seed(p, 0x85EBCA77))
	// Never store the reserved empty-slot hash.
	if h == 0 {
		h = 1
	}
	return h
}

// Note registers v as the byte string generated by seed. It is a cheap no-op
// while no flyweight store exists. Callers pass the full value; short values
// are not worth interning and are skipped.
func Note(v []byte, seed uint64) {
	if len(v) < MinLookup || !enabled.Load() {
		return
	}
	h := prefixKey(v)
	i := h & (1<<regBits - 1)
	regSeed[i].Store(seed)
	regHash[i].Store(h)
}

// Lookup returns the candidate seed registered for a byte range starting
// with v's prefix. The candidate is exactly that — callers MUST verify it
// with State.VerifyFrom before trusting it. ok is false when no candidate is
// registered (or the range is too short to have been Noted).
func Lookup(v []byte) (seed uint64, ok bool) {
	if len(v) < MinLookup || !enabled.Load() {
		return 0, false
	}
	h := prefixKey(v)
	i := h & (1<<regBits - 1)
	if regHash[i].Load() != h {
		return 0, false
	}
	return regSeed[i].Load(), true
}
