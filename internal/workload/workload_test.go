package workload

import (
	"bytes"
	"testing"

	"anykey/internal/payload"
)

func TestTable2Complete(t *testing.T) {
	if len(Table2) != 14 {
		t.Fatalf("Table2 has %d workloads, want 14", len(Table2))
	}
	highVK := map[string]bool{"KVSSD": true, "YCSB": true, "W-PinK": true, "Xbox": true}
	for _, s := range Table2 {
		if s.KeySize <= 0 || s.ValueSize <= 0 {
			t.Errorf("%s: bad sizes %d/%d", s.Name, s.KeySize, s.ValueSize)
		}
		if got, want := !s.LowVK(), highVK[s.Name]; got != want {
			t.Errorf("%s: LowVK classification wrong (v/k = %.2f)", s.Name, s.VK())
		}
	}
	if s, ok := ByName("Crypto1"); !ok || s.KeySize != 76 || s.ValueSize != 50 {
		t.Fatalf("ByName(Crypto1) = %+v, %v", s, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found phantom workload")
	}
}

func TestSpecHelpers(t *testing.T) {
	s := Custom("t", 40, 160)
	if s.VK() != 4.0 || s.PairSize() != 200 {
		t.Fatalf("VK=%v PairSize=%v", s.VK(), s.PairSize())
	}
}

func mustGen(t *testing.T, spec Spec, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	spec, _ := ByName("ETC")
	if _, err := NewGenerator(spec, Config{Population: 0, Theta: 0.99}); err == nil {
		t.Fatal("zero population accepted")
	}
	if _, err := NewGenerator(Custom("tiny", 4, 10), DefaultConfig(10)); err == nil {
		t.Fatal("tiny key accepted")
	}
	bad := DefaultConfig(10)
	bad.WriteRatio = 0.9
	bad.ScanRatio = 0.5
	if _, err := NewGenerator(spec, bad); err == nil {
		t.Fatal("op mix over 1.0 accepted")
	}
}

func TestKeyPropertiesAndOrder(t *testing.T) {
	g := mustGen(t, Table2[4], DefaultConfig(1000)) // ETC: 41-byte keys
	prev := g.Key(0)
	if len(prev) != 41 {
		t.Fatalf("key size %d, want 41", len(prev))
	}
	for id := uint64(1); id < 200; id++ {
		k := g.Key(id)
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("keys not ordered by id at %d", id)
		}
		prev = k
	}
	if !bytes.Equal(g.Key(7), g.Key(7)) {
		t.Fatal("Key not deterministic")
	}
}

func TestValueDeterministicPerVersion(t *testing.T) {
	g := mustGen(t, Table2[4], DefaultConfig(10))
	v0 := g.Value(3, 0)
	if len(v0) != 358 {
		t.Fatalf("value size %d", len(v0))
	}
	if !bytes.Equal(v0, g.Value(3, 0)) {
		t.Fatal("Value not deterministic")
	}
	if bytes.Equal(v0, g.Value(3, 1)) {
		t.Fatal("versions produce identical values")
	}
	if bytes.Equal(v0, g.Value(4, 0)) {
		t.Fatal("different ids produce identical values")
	}
}

func TestLoadIDIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 4096, 5000} {
		g := mustGen(t, Table2[4], DefaultConfig(n))
		seen := make([]bool, n)
		for i := uint64(0); i < n; i++ {
			id := g.LoadID(i)
			if id >= n {
				t.Fatalf("n=%d: LoadID(%d)=%d out of range", n, i, id)
			}
			if seen[id] {
				t.Fatalf("n=%d: LoadID repeats id %d", n, id)
			}
			seen[id] = true
		}
	}
}

func TestLoadIDShuffles(t *testing.T) {
	g := mustGen(t, Table2[4], DefaultConfig(10000))
	inPlace := 0
	for i := uint64(0); i < 10000; i++ {
		if g.LoadID(i) == i {
			inPlace++
		}
	}
	if inPlace > 100 {
		t.Fatalf("%d/10000 ids load in order; not shuffled", inPlace)
	}
}

func TestOpMixAndVersionTracking(t *testing.T) {
	cfg := DefaultConfig(5000)
	cfg.WriteRatio = 0.2
	g := mustGen(t, Table2[4], cfg)
	var gets, puts int
	for i := 0; i < 20000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpPut:
			puts++
			if !bytes.Equal(op.Value, g.ExpectedValue(op.ID)) {
				t.Fatal("Put value does not match subsequent ExpectedValue")
			}
			if len(op.Key) != 41 {
				t.Fatal("op key size wrong")
			}
		case OpGet:
			gets++
		default:
			t.Fatal("unexpected scan op")
		}
	}
	frac := float64(puts) / float64(gets+puts)
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("write fraction %.3f, want ≈0.2", frac)
	}
}

func TestScanOps(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.WriteRatio = 0
	cfg.ScanRatio = 1
	cfg.ScanLen = 100
	g := mustGen(t, Table2[5], cfg) // UDB
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Kind != OpScan || op.ScanLen != 100 {
			t.Fatalf("op = %+v", op)
		}
		if op.ID+uint64(op.ScanLen) > 1000 {
			t.Fatalf("scan overruns population: id=%d", op.ID)
		}
		if op.Bytes() != int64(27*100) {
			t.Fatalf("scan Bytes = %d", op.Bytes())
		}
	}
}

func TestOpBytes(t *testing.T) {
	g := mustGen(t, Table2[4], DefaultConfig(10))
	get := Op{Kind: OpGet, Key: g.Key(1)}
	put := Op{Kind: OpPut, Key: g.Key(1), Value: g.Value(1, 0)}
	if get.Bytes() != 41 || put.Bytes() != 41+358 {
		t.Fatalf("Bytes: get=%d put=%d", get.Bytes(), put.Bytes())
	}
}

func TestYCSBMixes(t *testing.T) {
	if len(YCSBMixes) != 6 {
		t.Fatalf("YCSB mixes: %d", len(YCSBMixes))
	}
	for _, m := range YCSBMixes {
		cfg, ok := YCSBConfig(m.Name, 1000)
		if !ok {
			t.Fatalf("mix %s missing", m.Name)
		}
		if cfg.WriteRatio != m.WriteRatio || cfg.ScanRatio != m.ScanRatio {
			t.Fatalf("mix %s config mismatch", m.Name)
		}
		spec, _ := ByName("YCSB")
		if _, err := NewGenerator(spec, cfg); err != nil {
			t.Fatalf("mix %s: %v", m.Name, err)
		}
	}
	if _, ok := YCSBConfig("Z", 10); ok {
		t.Fatal("unknown mix accepted")
	}
}

// wpink has values long enough to run the payload lane kernel.
var wpink, _ = ByName("W-PinK")

func TestGeneratorValueMatchesFresh(t *testing.T) {
	g := mustGen(t, wpink, DefaultConfig(64))
	for id := uint64(0); id < 64; id++ {
		for v := uint32(0); v < 10; v++ {
			if !bytes.Equal(g.Value(id, v), Value(wpink, id, v)) {
				t.Fatalf("g.Value(%d, %d) differs from a fresh Value", id, v)
			}
		}
	}
	// Walking the versions backwards hits and misses in another order.
	for id := uint64(0); id < 64; id++ {
		for v := uint32(9); v < 10; v-- {
			if !bytes.Equal(g.Value(id, v), Value(wpink, id, v)) {
				t.Fatalf("g.Value(%d, %d) differs from a fresh Value (descending)", id, v)
			}
		}
	}
}

// TestGeneratorValuesStayImmutable pins the contract the batch and
// open-loop drivers rely on: a slice the generator handed out is never
// rewritten, however its cache slot is reused afterwards.
func TestGeneratorValuesStayImmutable(t *testing.T) {
	cfg := DefaultConfig(valCacheSlots * 2) // ids collide in the value cache
	cfg.WriteRatio = 0.5
	g := mustGen(t, wpink, cfg)
	var held, want [][]byte
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Kind != OpPut {
			op.Value = g.ExpectedValue(op.ID)
		}
		held = append(held, op.Value)
		want = append(want, append([]byte(nil), op.Value...))
	}
	for i := 0; i < 10000; i++ {
		g.Next()
	}
	for i := range held {
		if !bytes.Equal(held[i], want[i]) {
			t.Fatalf("value %d handed out earlier was rewritten", i)
		}
	}
}

// TestValueStreamSharing: versions v and v+1 of an id carry the same bytes
// exactly when their seeds map to the same payload stream start.
func TestValueStreamSharing(t *testing.T) {
	var shared, distinct int
	for id := uint64(0); id < 64; id++ {
		for v := uint32(0); v < 10; v++ {
			same := payload.Start(valueSeed(id, v)) == payload.Start(valueSeed(id, v+1))
			if got := bytes.Equal(Value(wpink, id, v), Value(wpink, id, v+1)); got != same {
				t.Fatalf("id %d: versions %d and %d equal=%v, stream starts equal=%v", id, v, v+1, got, same)
			}
			if same {
				shared++
			} else {
				distinct++
			}
		}
	}
	if shared == 0 || distinct == 0 {
		t.Fatalf("shared=%d distinct=%d: both cases must occur", shared, distinct)
	}
}
