// Package workload implements the paper's evaluation workloads: the 14
// real-life key/value size profiles of Table 2 and the request generator
// that drives them (§5.1 — KV generator with configurable key/value sizes,
// a 20 % write ratio, scrambled-Zipfian key popularity, queue depth handled
// by the harness, plus the scan-centric variant of §6.6 / Fig. 18).
package workload

import (
	"fmt"
	"math/rand"

	"anykey/internal/payload"
	"anykey/internal/zipfian"
)

// Spec describes one workload profile from Table 2. Sizes are bytes.
// Arrival is the optional open-loop arrival process (arrival.go); its zero
// value keeps the spec closed-loop, so every Table 2 profile is unchanged.
type Spec struct {
	Name        string
	Description string
	KeySize     int
	ValueSize   int
	Arrival     ArrivalSpec
}

// WithArrival returns a copy of the spec driven by the given open-loop
// arrival process.
func (s Spec) WithArrival(a ArrivalSpec) Spec {
	s.Arrival = a
	return s
}

// VK returns the value-to-key ratio that classifies the workload.
func (s Spec) VK() float64 { return float64(s.ValueSize) / float64(s.KeySize) }

// LowVK reports whether the paper treats this as a low-v/k workload (the
// paper's split: KVSSD, YCSB, W-PinK and Xbox are high-v/k, the rest low).
func (s Spec) LowVK() bool { return s.VK() < 10 }

// PairSize returns the logical bytes of one KV pair.
func (s Spec) PairSize() int { return s.KeySize + s.ValueSize }

// Table2 is the paper's workload suite in its printed order.
var Table2 = []Spec{
	{Name: "KVSSD", Description: "The workload used in Samsung's KV-SSD", KeySize: 16, ValueSize: 4096},
	{Name: "YCSB", Description: "Default key and value sizes of YCSB", KeySize: 20, ValueSize: 1000},
	{Name: "W-PinK", Description: "The workload used in PinK", KeySize: 32, ValueSize: 1024},
	{Name: "Xbox", Description: "Xbox LIVE Primetime online game", KeySize: 94, ValueSize: 1200},
	{Name: "ETC", Description: "General-purpose KV store of Facebook", KeySize: 41, ValueSize: 358},
	{Name: "UDB", Description: "Facebook storage layer for social graph", KeySize: 27, ValueSize: 127},
	{Name: "Cache", Description: "Twitter's cache cluster", KeySize: 42, ValueSize: 188},
	{Name: "VAR", Description: "Server-side browser info. of Facebook", KeySize: 35, ValueSize: 115},
	{Name: "Crypto2", Description: "Trezor's KV store for Bitcoin wallet", KeySize: 37, ValueSize: 110},
	{Name: "Dedup", Description: "DB of Microsoft's storage dedup. engine", KeySize: 20, ValueSize: 44},
	{Name: "Cache15", Description: "15% of the 153 cache clusters at Twitter", KeySize: 38, ValueSize: 38},
	{Name: "ZippyDB", Description: "Object metadata of Facebook store", KeySize: 48, ValueSize: 43},
	{Name: "Crypto1", Description: "BlockStream's store for Bitcoin explorer", KeySize: 76, ValueSize: 50},
	{Name: "RTDATA", Description: "IBM's real-time data analytics workloads", KeySize: 24, ValueSize: 10},
}

// ByName looks a Table 2 workload up by its (case-sensitive) name.
func ByName(name string) (Spec, bool) {
	for _, s := range Table2 {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Custom builds an ad-hoc spec, used by the Fig. 2 value-size sweep.
func Custom(name string, keySize, valueSize int) Spec {
	return Spec{Name: name, Description: "custom", KeySize: keySize, ValueSize: valueSize}
}

// OpKind distinguishes generated requests.
type OpKind int

// Request kinds produced by the generator.
const (
	OpGet OpKind = iota
	OpPut
	OpScan
)

// Op is one generated request. For OpScan, ScanLen is the number of
// consecutive keys to retrieve starting at Key.
type Op struct {
	Kind    OpKind
	ID      uint64
	Key     []byte
	Value   []byte // set for OpPut
	ScanLen int    // set for OpScan
}

// Bytes returns the logical request size used to meter execution length
// (the paper runs until issued requests total 2× the SSD capacity).
func (o Op) Bytes() int64 {
	switch o.Kind {
	case OpPut:
		return int64(len(o.Key) + len(o.Value))
	case OpScan:
		return int64(len(o.Key)) * int64(o.ScanLen)
	default:
		return int64(len(o.Key))
	}
}

// Config parameterises a Generator.
type Config struct {
	Population uint64  // number of distinct keys
	Theta      float64 // Zipfian skew (paper default 0.99)
	WriteRatio float64 // fraction of operations that are writes (paper: 0.2)
	ScanRatio  float64 // fraction of operations that are scans (Fig. 18 only)
	ScanLen    int     // keys per scan
	Seed       int64
}

// DefaultConfig returns the paper's default request mix for population n.
func DefaultConfig(n uint64) Config {
	return Config{Population: n, Theta: 0.99, WriteRatio: 0.2, Seed: 1}
}

// Generator produces the request stream for one workload. It tracks the
// latest written version of every key so the harness can verify reads.
type Generator struct {
	spec     Spec
	cfg      Config
	rng      *rand.Rand
	zipf     *zipfian.Generator
	loadBits uint64 // even bit-width of the warm-up Feistel domain

	versions []uint32 // latest version per id; 0 = only the loaded version

	// Direct-mapped materialisation caches, both indexed by id. A key is a
	// pure function of (spec, id) and a value of (spec, stream start), so
	// a cache hit returns bytes identical to a fresh materialisation;
	// Zipfian skew makes hot ids recur constantly, and consecutive versions
	// of an id share a value stream half the time (see Value). A conflict
	// allocates a fresh buffer instead of rewriting the slot in place, so
	// slices handed out earlier are never mutated — callers may retain them
	// freely.
	keyIDs    []uint64
	keyBufs   [][]byte
	valStarts []uint64 // payload.Start of the cached value; 0 (never a start) = empty
	valBufs   [][]byte
}

// Cache geometry: slot counts must be powers of two. Sized for the skewed
// head of a Zipfian(0.99) draw; values get fewer slots since a value buffer
// can be KiB-scale.
const (
	keyCacheSlots = 1 << 14
	valCacheSlots = 1 << 13
)

// NewGenerator builds a generator; population and sizes must be positive.
func NewGenerator(spec Spec, cfg Config) (*Generator, error) {
	if cfg.Population == 0 {
		return nil, fmt.Errorf("workload: zero population")
	}
	if spec.KeySize < 9 {
		return nil, fmt.Errorf("workload %s: key size %d below 9-byte minimum", spec.Name, spec.KeySize)
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 || cfg.ScanRatio < 0 || cfg.WriteRatio+cfg.ScanRatio > 1 {
		return nil, fmt.Errorf("workload: bad op mix w=%v s=%v", cfg.WriteRatio, cfg.ScanRatio)
	}
	if err := spec.Arrival.Validate(); err != nil {
		return nil, err
	}
	z, err := zipfian.New(cfg.Population, cfg.Theta)
	if err != nil {
		return nil, err
	}
	bits := uint64(2)
	for uint64(1)<<bits < cfg.Population {
		bits += 2
	}
	return &Generator{
		spec:      spec,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		zipf:      z,
		loadBits:  bits,
		versions:  make([]uint32, cfg.Population),
		keyIDs:    make([]uint64, keyCacheSlots),
		keyBufs:   make([][]byte, keyCacheSlots),
		valStarts: make([]uint64, valCacheSlots),
		valBufs:   make([][]byte, valCacheSlots),
	}, nil
}

// Spec returns the workload profile being generated.
func (g *Generator) Spec() Spec { return g.spec }

// Population returns the number of distinct keys.
func (g *Generator) Population() uint64 { return g.cfg.Population }

// Key materialises the id's key: an 8-byte big-endian id prefix (preserving
// id order, so scans over consecutive ids are scans over consecutive keys)
// followed by deterministic filler, exactly KeySize bytes.
func (g *Generator) Key(id uint64) []byte {
	slot := id & (keyCacheSlots - 1)
	if b := g.keyBufs[slot]; b != nil && g.keyIDs[slot] == id {
		return b
	}
	k := Key(g.spec, id)
	g.keyIDs[slot], g.keyBufs[slot] = id, k
	return k
}

// Value materialises the value for (id, version): deterministic bytes with
// the id and version embedded so reads are verifiable. The bytes depend on
// (id, version) only through payload.Start(valueSeed(id, version)), which
// drops the seed's low bit, so versions v and v+1 share one stream whenever
// valueSeed(id, v) is even; the cache is keyed by that start and serves
// both.
func (g *Generator) Value(id uint64, version uint32) []byte {
	seed := valueSeed(id, version)
	start := uint64(payload.Start(seed))
	slot := id & (valCacheSlots - 1)
	if g.valStarts[slot] == start {
		// Re-register on cache hits, under the caller's seed: the write
		// that follows may land on flash long after the first generation
		// Noted these bytes.
		payload.Note(g.valBufs[slot], seed)
		return g.valBufs[slot]
	}
	v := Value(g.spec, id, version)
	g.valStarts[slot], g.valBufs[slot] = start, v
	return v
}

// Key materialises a key for spec without a Generator (used by fill-to-full
// runs over an unbounded id space).
func Key(spec Spec, id uint64) []byte { return AppendKey(nil, spec, id) }

// AppendKey materialises the id's key into dst's storage, reusing its
// capacity when it suffices, and returns the key. The bytes are identical to
// Key(spec, id); callers that hand the result to a copying sink (every
// device Put copies) can reuse one buffer across a fill loop.
func AppendKey(dst []byte, spec Spec, id uint64) []byte {
	if cap(dst) < spec.KeySize {
		dst = make([]byte, spec.KeySize)
	}
	k := dst[:spec.KeySize]
	for i := 0; i < 8; i++ {
		k[i] = byte(id >> (56 - 8*i))
	}
	payload.Fill(k[8:], id^0xA5A5A5A5)
	return k
}

// Value materialises a value for spec without a Generator.
func Value(spec Spec, id uint64, version uint32) []byte {
	return AppendValue(nil, spec, id, version)
}

// AppendValue is to Value what AppendKey is to Key. Every value is a pure
// function of (id, version), which the payload registry exploits: Note tells
// the flyweight page store how to regenerate these bytes instead of
// retaining them (a no-op unless a flyweight-mode device is open).
func AppendValue(dst []byte, spec Spec, id uint64, version uint32) []byte {
	if cap(dst) < spec.ValueSize {
		dst = make([]byte, spec.ValueSize)
	}
	v := dst[:spec.ValueSize]
	seed := valueSeed(id, version)
	payload.Fill(v, seed)
	payload.Note(v, seed)
	return v
}

// valueSeed is the payload seed of the value for (id, version).
func valueSeed(id uint64, version uint32) uint64 {
	return id*0x9E3779B97F4A7C15 + uint64(version)
}

// ExpectedValue returns the value a correct device must return for id now.
func (g *Generator) ExpectedValue(id uint64) []byte {
	return g.Value(id, g.versions[id])
}

// LoadID returns the id loaded at warm-up position i. LoadID is a bijection
// on [0, Population): warm-up inserts key LoadID(i) for i = 0..Population-1,
// inserting every key exactly once in shuffled order so the LSM tree reaches
// a realistic overlapping-levels state instead of one perfectly sorted run.
func (g *Generator) LoadID(i uint64) uint64 {
	x := g.feistel(i)
	// Cycle-walk: feistel permutes [0, 2^bits) with 2^bits < 4·Population,
	// so the expected walk length is below 4 steps.
	for x >= g.cfg.Population {
		x = g.feistel(x)
	}
	return x
}

// feistel is a 4-round balanced Feistel permutation over [0, 2^loadBits).
func (g *Generator) feistel(x uint64) uint64 {
	half := g.loadBits / 2
	mask := uint64(1)<<half - 1
	l, r := (x>>half)&mask, x&mask
	for round := uint64(0); round < 4; round++ {
		l, r = r, l^(mixRound(r, round, uint64(g.cfg.Seed))&mask)
	}
	return l<<half | r
}

func mixRound(r, round, seed uint64) uint64 {
	return zipfian.Scramble(r*0x100000001b3 + round*0x9E3779B9 + seed)
}

// Next draws the next request after warm-up: a Get, Put or Scan on a
// Zipfian-popular key.
func (g *Generator) Next() Op {
	id := g.zipf.NextScrambled(g.rng)
	r := g.rng.Float64()
	switch {
	case r < g.cfg.WriteRatio:
		g.versions[id]++
		return Op{Kind: OpPut, ID: id, Key: g.Key(id), Value: g.Value(id, g.versions[id])}
	case r < g.cfg.WriteRatio+g.cfg.ScanRatio:
		ln := g.cfg.ScanLen
		if ln <= 0 {
			ln = 1
		}
		if id+uint64(ln) > g.cfg.Population {
			id = g.cfg.Population - uint64(ln)
		}
		return Op{Kind: OpScan, ID: id, Key: g.Key(id), ScanLen: ln}
	default:
		return Op{Kind: OpGet, ID: id, Key: g.Key(id)}
	}
}

// YCSBMix identifies one of the standard YCSB core workload mixes, mapped
// onto this generator's operations. Inserts and read-modify-writes are
// modelled as updates (the device-side work is identical: a Put).
type YCSBMix struct {
	Name        string
	Description string
	WriteRatio  float64
	ScanRatio   float64
	ScanLen     int
}

// YCSBMixes are the YCSB core workloads A–F.
var YCSBMixes = []YCSBMix{
	{"A", "update heavy: 50% reads, 50% updates", 0.5, 0, 0},
	{"B", "read mostly: 95% reads, 5% updates", 0.05, 0, 0},
	{"C", "read only", 0, 0, 0},
	{"D", "read latest: 95% reads, 5% inserts (as updates)", 0.05, 0, 0},
	{"E", "short ranges: 95% scans, 5% inserts (as updates)", 0.05, 0.95, 50},
	{"F", "read-modify-write: 50% reads, 50% RMW (as updates)", 0.5, 0, 0},
}

// YCSBConfig builds a generator Config for the named mix over n keys.
func YCSBConfig(mix string, n uint64) (Config, bool) {
	for _, m := range YCSBMixes {
		if m.Name == mix {
			cfg := Config{
				Population: n,
				Theta:      0.99,
				WriteRatio: m.WriteRatio,
				ScanRatio:  m.ScanRatio,
				ScanLen:    m.ScanLen,
				Seed:       1,
			}
			return cfg, true
		}
	}
	return Config{}, false
}
