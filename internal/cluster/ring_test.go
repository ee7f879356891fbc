package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// seedKeys builds a deterministic keyset from a seed, shaped like real
// workload keys rather than a dense counter.
func seedKeys(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%016x", rng.Uint64()))
	}
	return keys
}

// movedFraction counts keys whose owner changes between two topologies
// under the given routing function.
func movedFraction(keys [][]byte, before, after func(key []byte) int32) float64 {
	moved := 0
	for _, k := range keys {
		if before(k) != after(k) {
			moved++
		}
	}
	return float64(moved) / float64(len(keys))
}

// The consistent ring's whole point: adding or removing one member moves
// only about 1/N of the keys, while modulo routing reshuffles nearly
// everything. Asserted over two key seeds so a lucky keyset can't pass a
// broken ring.
func TestRingBoundedMovement(t *testing.T) {
	const n = 8
	ringN := BuildRing(seqMembers(n))
	ringN1 := BuildRing(seqMembers(n + 1))
	for _, seed := range []int64{1, 0x5eed} {
		keys := seedKeys(seed, 4000)

		// Consistent: adding member n moves ~1/(n+1) of the keys — and
		// every moved key moves TO the new member, never between old ones.
		consMoved := 0
		for _, k := range keys {
			before, after := ringN.Owner(k), ringN1.Owner(k)
			if before != after {
				consMoved++
				if after != int32(n) {
					t.Fatalf("seed %#x: key %q moved %d→%d, not to the new member", seed, k, before, after)
				}
			}
		}
		consFrac := float64(consMoved) / float64(len(keys))
		ideal := 1.0 / float64(n+1)
		if consFrac > 2.5*ideal {
			t.Errorf("seed %#x: consistent add moved %.1f%% of keys, ideal %.1f%%", seed, consFrac*100, ideal*100)
		}
		if consFrac == 0 {
			t.Errorf("seed %#x: consistent add moved no keys", seed)
		}

		// Removing one member mirrors the bound: only its keys move.
		ringDrop := BuildRing(seqMembers(n)[:n-1])
		dropFrac := movedFraction(keys, ringN.Owner, ringDrop.Owner)
		if dropFrac > 2.5/float64(n) {
			t.Errorf("seed %#x: consistent remove moved %.1f%% of keys, ideal %.1f%%", seed, dropFrac*100, 100.0/float64(n))
		}

		// Modulo: the same topology change reshuffles most of the keyspace
		// (the contrast that justifies the ring's existence).
		modN := func(k []byte) int32 { return int32(hashBytes(k) % n) }
		modN1 := func(k []byte) int32 { return int32(hashBytes(k) % (n + 1)) }
		modFrac := movedFraction(keys, modN, modN1)
		if modFrac < 3*consFrac {
			t.Errorf("seed %#x: modulo moved only %.1f%% vs consistent %.1f%% — contrast collapsed", seed, modFrac*100, consFrac*100)
		}
	}
}

// Replica walks must yield distinct members whose prefix is the
// single-owner route, and stay stable when an unrelated member joins.
func TestRingOwnersWalkStability(t *testing.T) {
	ring := BuildRing(seqMembers(6))
	bigger := BuildRing(seqMembers(7))
	keys := seedKeys(3, 2000)
	changed := 0
	for _, k := range keys {
		owners := ring.Owners(nil, k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners", k, len(owners))
		}
		if owners[0] != ring.Owner(k) {
			t.Fatalf("key %q: walk head %d != Owner %d", k, owners[0], ring.Owner(k))
		}
		seen := map[int32]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner in walk %v", k, owners)
			}
			seen[o] = true
		}
		after := bigger.Owners(nil, k, 3)
		for i := range owners {
			if owners[i] != after[i] {
				changed++
				break
			}
		}
	}
	// Adding one member to six perturbs roughly R/(N+1) of walks; far more
	// means the walk isn't anchored to the ring geometry.
	if frac := float64(changed) / float64(len(keys)); frac > 0.75 {
		t.Errorf("walks changed for %.1f%% of keys after an unrelated join", frac*100)
	}
}
