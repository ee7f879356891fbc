package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anykey/internal/host"
	"anykey/internal/trace"
)

// setState puts a shard in any lifecycle state directly, hardware kept.
func setState(sh *Shard, st ShardState) {
	sh.mu.Lock()
	sh.state = st
	sh.mu.Unlock()
}

// TestDoAdmitsByState runs a request through Shard.Do in every lifecycle
// state under every admission set: it runs exactly when the set names the
// state and answers ErrShardDown otherwise, it reports the state either
// way, only a client request is counted, and a put-if-absent never
// overwrites.
func TestDoAdmitsByState(t *testing.T) {
	sets := []struct {
		name  string
		set   Admit
		admit []ShardState
	}{
		{"present", Present, []ShardState{ShardAlive, ShardRebuilding, ShardRetired}},
		{"writable", Writable, []ShardState{ShardAlive, ShardRebuilding}},
		{"serving", Serving, []ShardState{ShardAlive}},
		{"refilling", Refilling, []ShardState{ShardRebuilding}},
	}
	c := freshCluster(t, 1, Config{})
	sh := c.Shard(0)
	key := []byte("admit")
	for _, tc := range sets {
		for _, st := range []ShardState{ShardAlive, ShardDead, ShardRebuilding, ShardRetired} {
			for _, stream := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/stream=%v", tc.name, st, stream)
				want := false
				for _, a := range tc.admit {
					want = want || a == st
				}
				if tc.set.has(st) != want {
					t.Fatalf("%s: has = %v", name, !want)
				}
				setState(sh, st)
				before := sh.ops
				value := []byte(name)
				put := Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: key, Value: value, Stream: stream}
				_, got, err := sh.Do(put, tc.set)
				if got != st {
					t.Fatalf("%s: reported state %s", name, got)
				}
				if !want {
					if !errors.Is(err, ErrShardDown) || sh.ops != before {
						t.Fatalf("%s: err %v, ops %d → %d; want ErrShardDown, uncounted", name, err, before, sh.ops)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantOps := before + 1
				if stream {
					wantOps = before
				}
				if sh.ops != wantOps {
					t.Fatalf("%s: ops %d → %d, want %d", name, before, sh.ops, wantOps)
				}
				put.Value, put.IfAbsent = []byte("clobber"), true
				if _, _, err := sh.Do(put, tc.set); !errors.Is(err, ErrExists) {
					t.Fatalf("%s: put-if-absent over a present key: %v, want ErrExists", name, err)
				}
				comp, _, err := sh.Do(Request{Kind: trace.OpGet, Arrival: host.WhenFree, Key: key}, tc.set)
				if err != nil || !bytes.Equal(comp.Value, value) {
					t.Fatalf("%s: read back %q, %v; want %q", name, comp.Value, err, value)
				}
			}
		}
	}
	// On a miss, put-if-absent writes.
	setState(sh, ShardRebuilding)
	fresh := Request{Kind: trace.OpPut, Arrival: host.WhenFree, Key: []byte("fresh"), Value: []byte("v"), IfAbsent: true}
	if _, _, err := sh.Do(fresh, Refilling); err != nil {
		t.Fatalf("put-if-absent of an absent key: %v", err)
	}
	if comp, _, err := sh.Do(Request{Kind: trace.OpGet, Arrival: host.WhenFree, Key: fresh.Key}, Refilling); err != nil || string(comp.Value) != "v" {
		t.Fatalf("put-if-absent wrote %q, %v", comp.Value, err)
	}
}

// TestHotPathAllocations pins what one request allocates through the shard
// path, AnyKey+ shards at QD 64: a routed put allocates only inside the
// device, a routed get only its caller-owned copy, a 64-key MultiGet its
// result slices and one copy per value — the request descriptor is a value,
// never a closure per op.
func TestHotPathAllocations(t *testing.T) {
	c := freshCluster(t, 4, Config{QueueDepth: 64})
	keys, vals := testKeys(512), testValues(512)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, tc := range []struct {
		name string
		max  float64
		runs int
		fn   func()
	}{
		{"PutOneAt", 1, 2000, func() {
			i++
			if _, _, err := c.PutOneAt(0, keys[i%len(keys)], vals[i%len(vals)]); err != nil {
				t.Fatal(err)
			}
		}},
		{"GetOneAt", 1, 2000, func() {
			i++
			if _, _, err := c.GetOneAt(0, keys[i%len(keys)]); err != nil {
				t.Fatal(err)
			}
		}},
		{"MultiGet64", 70, 200, func() {
			if _, err := c.MultiGet(keys[:64]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(tc.runs, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.max)
		}
	}
}
