package anykey

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func smallFleetOpts(factor, quorum int) ClusterOptions {
	o := smallClusterOpts()
	o.Replication = ReplicationOptions{Factor: factor, WriteQuorum: quorum}
	return o
}

func TestFleetOptionsValidation(t *testing.T) {
	if _, err := OpenCluster(smallFleetOpts(-1, 0)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("negative factor: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(9, 0)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("factor above shards: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(2, 3)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("quorum above factor: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(0, 2)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("quorum without factor: %v", err)
	}
	o := smallFleetOpts(2, 0)
	o.Router = RouteModulo
	if _, err := OpenCluster(o); !errors.Is(err, ErrUnsupported) {
		t.Errorf("replication over modulo: %v", err)
	}
	// WriteQuorum normalizes to Factor.
	o = smallFleetOpts(3, 0)
	if err := o.Validate(); err != nil || o.Replication.WriteQuorum != 3 {
		t.Errorf("quorum default: %+v %v", o.Replication, err)
	}

	// A non-replicated cluster refuses the fleet-only calls.
	plain, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.AddShard(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("AddShard on plain cluster: %v", err)
	}
	if err := plain.KillShard(0, KillPowerCut); !errors.Is(err, ErrUnsupported) {
		t.Errorf("KillShard on plain cluster: %v", err)
	}
	if got := plain.Replication(); got.Factor != 0 {
		t.Errorf("plain Replication() = %+v", got)
	}
}

func TestFleetRoundTripAndKill(t *testing.T) {
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var keys, vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user:%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('a' + i%26)}, 80))
	}
	pr, err := c.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if pr.Latency() < 0 {
		t.Fatalf("negative batch latency %v", pr.Latency())
	}

	if err := c.KillShard(1, KillGrownBad); err != nil {
		t.Fatal(err)
	}
	state, cause, err := c.ShardState(1)
	if err != nil || state != "dead" || cause != "grown-bad" {
		t.Fatalf("ShardState = %q/%q (%v)", state, cause, err)
	}
	// Every key survives the kill at R=2.
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gr.Errs[i] != nil || !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("key %d after kill: %v", i, gr.Errs[i])
		}
	}
	fs, err := c.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Repl.DeadMembers != 1 || fs.Repl.Factor != 2 {
		t.Fatalf("FleetStats.Repl = %+v", fs.Repl)
	}

	// Rebuild restores the replica and the counters say so.
	rb, err := c.RebuildShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Run(); err != nil {
		t.Fatal(err)
	}
	fs, _ = c.FleetStats()
	if fs.Repl.Rebuilds != 1 || fs.Repl.RebuiltKeys == 0 || fs.Repl.DeadMembers != 0 {
		t.Fatalf("post-rebuild FleetStats.Repl = %+v", fs.Repl)
	}
}

func TestFleetTopologyChangeUnderTraffic(t *testing.T) {
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys, vals [][]byte
	for i := 0; i < 240; i++ {
		keys = append(keys, []byte(fmt.Sprintf("item:%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('0' + i%10)}, 64))
	}
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}

	mig, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 5 {
		t.Fatalf("Shards() after AddShard = %d", c.Shards())
	}
	if _, err := c.RemoveShard(0); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("RemoveShard mid-migration: %v", err)
	}
	if st := c.Migrating(); !st.Active || st.Kind != "add" {
		t.Fatalf("Migrating() = %+v", st)
	}
	// Interleave: step, read, step — double-read keeps every key visible.
	if _, err := mig.Step(30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 11 {
		v, _, err := c.Get(keys[i])
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("mid-migration get %d: %v", i, err)
		}
	}
	if err := mig.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Migrating(); st.Active || st.Epoch != 1 {
		t.Fatalf("post-commit Migrating() = %+v", st)
	}
	fs, _ := c.FleetStats()
	if fs.Repl.MigratedKeys == 0 {
		t.Fatal("no keys migrated")
	}
	for i := range keys {
		v, _, err := c.Get(keys[i])
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("post-migration get %d: %v", i, err)
		}
	}
}

func TestFleetSentinelRoundTrips(t *testing.T) {
	for _, sent := range []error{ErrQuorumNotMet, ErrShardDown, ErrMigrationInProgress} {
		wrapped := fmt.Errorf("context: %w", sent)
		if !errors.Is(wrapped, sent) {
			t.Errorf("errors.Is failed for %v", sent)
		}
	}
	// Live round trip: kill enough members that writes fail quorum, then
	// all members, so reads report every-replica-down.
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := []byte("sentinel-key")
	if _, err := c.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 4; s++ {
		if err := c.KillShard(s, KillPowerCut); err != nil {
			t.Fatal(err)
		}
	}
	sawQuorum := false
	for i := 0; i < 50 && !sawQuorum; i++ {
		_, err := c.Put([]byte(fmt.Sprintf("qk-%d", i)), []byte("v"))
		if errors.Is(err, ErrQuorumNotMet) {
			sawQuorum = true
		}
	}
	if !sawQuorum {
		t.Fatal("never saw ErrQuorumNotMet with three dead members")
	}
	if err := c.KillShard(0, KillPowerCut); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(key); !errors.Is(err, ErrShardDown) {
		t.Fatalf("get with all dead: %v, want ErrShardDown", err)
	}
}

// factorOneTranscript drives one seeded 20 K-op Put/Get/Delete/MultiPut/
// MultiGet stream over a bounded key ring and renders everything a caller can
// observe: per-op latency, verdict, value and the routed shard's clock (the
// op's Done instant), per-batch completions, and the final per-shard clocks
// and flash counters.
func factorOneTranscript(t *testing.T, repl ReplicationOptions) string {
	t.Helper()
	opts := smallClusterOpts()
	opts.Replication = repl
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const ops, ring, batch = 20_000, 1500, 16
	rng := rand.New(rand.NewSource(42))
	key := func() []byte { return []byte(fmt.Sprintf("f1:%05d", rng.Intn(ring))) }
	val := func() []byte { return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 16+rng.Intn(96)) }
	var sb strings.Builder
	batchOut := func(br *BatchResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		// Start is left out: a replicated batch stamps it from the merged
		// fleet clock, a single-copy batch from the involved shards only.
		fmt.Fprintf(&sb, "batch done=%d", br.Done)
		for i, comp := range br.Completions {
			fmt.Fprintf(&sb, " %d:%d:%d:%d:%x:%v", br.Shards[i], comp.Arrival, comp.Issued, comp.Done, comp.Value, br.Errs[i])
		}
		sb.WriteByte('\n')
	}
	for n := 0; n < ops; {
		switch r := rng.Intn(100); {
		case r < 40:
			k := key()
			lat, err := c.Put(k, val())
			fmt.Fprintf(&sb, "put %d %d %v\n", lat, c.ShardNow(c.ShardFor(k)), err)
			n++
		case r < 80:
			k := key()
			v, lat, err := c.Get(k)
			fmt.Fprintf(&sb, "get %d %d %x %v\n", lat, c.ShardNow(c.ShardFor(k)), v, err)
			n++
		case r < 90:
			k := key()
			lat, err := c.Delete(k)
			fmt.Fprintf(&sb, "del %d %d %v\n", lat, c.ShardNow(c.ShardFor(k)), err)
			n++
		case r < 95:
			keys, vals := make([][]byte, batch), make([][]byte, batch)
			for i := range keys {
				keys[i], vals[i] = key(), val()
			}
			batchOut(c.MultiPut(keys, vals))
			n += batch
		default:
			keys := make([][]byte, batch)
			for i := range keys {
				keys[i] = key()
			}
			batchOut(c.MultiGet(keys))
			n += batch
		}
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	fmt.Fprintf(&sb, "final ops=%d now=%d live=%d/%d flash=%+v\n", st.Ops, st.Now, st.LiveKeys, st.LiveBytes, st.Flash)
	for _, ss := range st.PerShard {
		fmt.Fprintf(&sb, "shard %d ops=%d now=%d live=%d flash=%+v\n", ss.Shard, ss.Ops, ss.Now, ss.LiveKeys, ss.Flash)
	}
	return sb.String()
}

// TestFactorOneMatchesSingleCopy pins "R=1 degenerates to exactly the
// single-copy cluster": the same seeded devices and the same op stream
// through Replication{} and Replication{Factor: 1} must be indistinguishable
// — the test that fails first if the shared shard set and the replication
// policy layered on it drift apart.
func TestFactorOneMatchesSingleCopy(t *testing.T) {
	single := factorOneTranscript(t, ReplicationOptions{})
	factor1 := factorOneTranscript(t, ReplicationOptions{Factor: 1})
	if single == factor1 {
		return
	}
	a, b := strings.Split(single, "\n"), strings.Split(factor1, "\n")
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("transcripts diverge at line %d of %d:\n single-copy: %.300s\n factor 1:    %.300s", i, len(a), a[i], b[min(i, len(b)-1)])
		}
	}
	t.Fatalf("factor-1 transcript longer: %d vs %d lines", len(b), len(a))
}
