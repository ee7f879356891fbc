package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"anykey/internal/kv"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/xxhash"
)

func makeEntities(n int, keyLen, valLen int, seed int64) []kv.Entity {
	rng := rand.New(rand.NewSource(seed))
	ents := make([]kv.Entity, n)
	for i := range ents {
		key := []byte(fmt.Sprintf("%0*d", keyLen, i*7))
		val := make([]byte, valLen)
		rng.Read(val)
		ents[i] = kv.Entity{Key: key, Hash: xxhash.Sum32(key), Value: val, ValueLen: valLen}
	}
	return ents
}

func TestGroupLayoutArithmetic(t *testing.T) {
	ents := makeEntities(100, 12, 40, 1)
	pages, ok := groupLayout(ents, 100, 1024, 32)
	if !ok || pages <= 0 {
		t.Fatalf("layout failed: %d %v", pages, ok)
	}
	// More entities cannot use fewer pages.
	p50, _ := groupLayout(ents, 50, 1024, 32)
	if p50 > pages {
		t.Fatalf("50 entities use %d pages, 100 use %d", p50, pages)
	}
	// An entity larger than a page is rejected.
	big := []kv.Entity{{Key: []byte("k"), Value: make([]byte, 2000)}}
	if _, ok := groupLayout(big, 1, 1024, 32); ok {
		t.Fatal("oversized entity accepted")
	}
}

func TestTakeGroupRespectsMaxPages(t *testing.T) {
	ents := makeEntities(3000, 12, 40, 2)
	cut := takeGroup(ents, 1024, 8)
	if cut <= 0 || cut > len(ents) {
		t.Fatalf("cut = %d", cut)
	}
	pages, ok := groupLayout(ents, cut, 1024, 8)
	if !ok {
		t.Fatal("selected prefix does not fit")
	}
	if pages > 8 {
		t.Fatalf("selected prefix uses %d pages > 8", pages)
	}
	if cut < len(ents) {
		if _, ok := groupLayout(ents, cut+1, 1024, 8); ok {
			t.Fatal("takeGroup left room on the table")
		}
	}
}

func TestBuildGroupRoundTrip(t *testing.T) {
	ents := makeEntities(200, 12, 30, 3)
	bg := buildGroup(ents, 1024, nil)
	g := bg.g
	if g.count != 200 || len(bg.pages) != g.numPages {
		t.Fatalf("group: count=%d pages=%d/%d", g.count, len(bg.pages), g.numPages)
	}
	if string(g.smallest) != string(ents[0].Key) {
		t.Fatalf("smallest = %q", g.smallest)
	}
	// The location table must enumerate all entities in key order.
	table := readLocationTable(bg.pages[:g.tablePages], g.count)
	var prev []byte
	for i, loc := range table {
		pr := kv.OpenPage(bg.pages[g.tablePages+int(loc.Page)])
		e, err := pr.Entity(int(loc.Rec))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && kv.Compare(prev, e.Key) >= 0 {
			t.Fatalf("location table not key-sorted at %d", i)
		}
		prev = append(prev[:0], e.Key...)
	}
	// Entities within each page must be hash-sorted, and page first-hashes
	// must match the descriptor.
	for p := 0; p < g.entityPages(); p++ {
		pr := kv.OpenPage(bg.pages[g.tablePages+p])
		var prevHash uint32
		for i := 0; i < pr.Count(); i++ {
			e, err := pr.Entity(i)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if xxhash.Prefix16(e.Hash) != g.firstHash16[p] {
					t.Fatalf("page %d firstHash16 mismatch", p)
				}
			} else if e.Hash < prevHash {
				t.Fatalf("page %d not hash-sorted at %d", p, i)
			}
			prevHash = e.Hash
		}
	}
	// Hash list must be sorted and complete.
	if len(bg.entityHashes) != 200 {
		t.Fatalf("entityHashes has %d entries", len(bg.entityHashes))
	}
	if !sort.SliceIsSorted(bg.entityHashes, func(a, b int) bool { return bg.entityHashes[a] < bg.entityHashes[b] }) {
		t.Fatal("entityHashes not sorted")
	}
}

// Force hash collisions spanning page boundaries and verify the collision
// bits are set (Fig. 7).
func TestBuildGroupCollisionBits(t *testing.T) {
	// Many entities with the SAME hash, big enough to span pages.
	var ents []kv.Entity
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("collide-%04d", i))
		ents = append(ents, kv.Entity{Key: key, Hash: 0xABCD1234, Value: make([]byte, 60)})
	}
	sort.Slice(ents, func(a, b int) bool { return kv.Compare(ents[a].Key, ents[b].Key) < 0 })
	bg := buildGroup(ents, 1024, nil)
	g := bg.g
	if g.entityPages() < 2 {
		t.Fatalf("collision run fits one page (%d); test needs spanning", g.entityPages())
	}
	for p := 0; p < g.entityPages(); p++ {
		aux := kv.OpenPage(bg.pages[g.tablePages+p]).Aux()
		if p+1 < g.entityPages() && aux&auxContinuesNext == 0 {
			t.Fatalf("page %d missing continues-next bit", p)
		}
		if p > 0 && aux&auxContinuesPrev == 0 {
			t.Fatalf("page %d missing continues-prev bit", p)
		}
	}
}

// Property: buildGroup handles arbitrary entity size mixes and the table is
// always consistent.
func TestBuildGroupProperty(t *testing.T) {
	f := func(seed int64, n uint8, valSize uint8) bool {
		count := int(n)%150 + 1
		ents := makeEntities(count, 10, int(valSize)%100+1, seed)
		bg := buildGroup(ents, 1024, nil)
		if bg.g.count != count {
			return false
		}
		table := readLocationTable(bg.pages[:bg.g.tablePages], count)
		seen := map[string]bool{}
		for _, loc := range table {
			pr := kv.OpenPage(bg.pages[bg.g.tablePages+int(loc.Page)])
			e, err := pr.Entity(int(loc.Rec))
			if err != nil {
				return false
			}
			seen[string(e.Key)] = true
		}
		return len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupEntryBytes(t *testing.T) {
	g := &group{smallest: []byte("0123456789"), firstHash16: make([]uint16, 8)}
	if g.entryBytes() != 10+8+16+16 {
		t.Fatalf("entryBytes = %d", g.entryBytes())
	}
	g.hashes = make([]uint32, 100)
	if g.hashListBytes() != 400 {
		t.Fatalf("hashListBytes = %d", g.hashListBytes())
	}
}

func TestHashContains(t *testing.T) {
	g := &group{hashes: []uint32{1, 5, 5, 9, 100}}
	for _, h := range []uint32{1, 5, 9, 100} {
		if !g.hashContains(h) {
			t.Fatalf("hashContains(%d) = false", h)
		}
	}
	for _, h := range []uint32{0, 2, 99, 101} {
		if g.hashContains(h) {
			t.Fatalf("hashContains(%d) = true", h)
		}
	}
}

func TestLevelFindGroup(t *testing.T) {
	lv := &level{groups: []*group{
		{smallest: []byte("b")},
		{smallest: []byte("m")},
		{smallest: []byte("t")},
	}}
	if lv.findGroup([]byte("a")) != nil {
		t.Fatal("key below all groups found one")
	}
	if g := lv.findGroup([]byte("b")); g != lv.groups[0] {
		t.Fatal("exact smallest not matched")
	}
	if g := lv.findGroup([]byte("p")); g != lv.groups[1] {
		t.Fatal("mid key mapped wrong")
	}
	if g := lv.findGroup([]byte("zzz")); g != lv.groups[2] {
		t.Fatal("tail key mapped wrong")
	}
}

func TestBigTableSpillsPages(t *testing.T) {
	// Tiny values force thousands of entities per group; the location table
	// must spill beyond one page.
	ents := makeEntities(2000, 10, 2, 9)
	bg := buildGroup(ents, 1024, nil)
	wantTable := (2000*locEntrySize + tableChunk(1024) - 1) / tableChunk(1024)
	if bg.g.tablePages != wantTable || bg.g.tablePages < 2 {
		t.Fatalf("tablePages = %d, want %d (≥2)", bg.g.tablePages, wantTable)
	}
	table := readLocationTable(bg.pages[:bg.g.tablePages], 2000)
	if len(table) != 2000 {
		t.Fatalf("table entries = %d", len(table))
	}
}

func TestSearchPageByHashStatuses(t *testing.T) {
	img := make([]byte, 1024)
	w := kv.NewPageWriter(img, nil)
	for _, h := range []uint32{10, 20, 20, 30} {
		e := kv.Entity{Key: []byte(fmt.Sprintf("k%d%p", h, &h)), Hash: h, Value: []byte("v")}
		// unique-ish keys: use the loop index embedded
		e.Key = []byte(fmt.Sprintf("k-%d-%d", h, w.Count()))
		if !w.AppendEntity(&e) {
			t.Fatal("append failed")
		}
	}
	pr := kv.OpenPage(img)

	if _, st := searchPageByHash(pr, []byte("k-20-1"), 20); st != pageHit {
		t.Fatalf("exact key: %v", st)
	}
	if _, st := searchPageByHash(pr, []byte("other"), 20); st != pageMiss {
		t.Fatalf("hash present, key absent: %v", st)
	}
	if _, st := searchPageByHash(pr, []byte("x"), 5); st != pageBefore {
		t.Fatalf("hash below page: %v", st)
	}
	if _, st := searchPageByHash(pr, []byte("x"), 25); st != pageMiss {
		t.Fatalf("hash between: %v", st)
	}
	if _, st := searchPageByHash(pr, []byte("x"), 99); st != pageMiss {
		t.Fatalf("hash above without continuation: %v", st)
	}
	// With the continues-next bit and a run reaching the page end:
	w2img := make([]byte, 1024)
	w2 := kv.NewPageWriter(w2img, nil)
	for i := 0; i < 3; i++ {
		e := kv.Entity{Key: []byte(fmt.Sprintf("c-%d", i)), Hash: 77, Value: []byte("v")}
		w2.AppendEntity(&e)
	}
	w2.SetAux(auxContinuesNext)
	if _, st := searchPageByHash(kv.OpenPage(w2img), []byte("c-9"), 77); st != pageContinues {
		t.Fatalf("continuation: %v", st)
	}
}

// Property: searching a built group through the hash-prefix + collision-bit
// machinery finds exactly the entities it contains, and nothing else. The
// group is installed on a real flash array so the search runs the same code
// as the device read path.
func TestGroupSearchProperty(t *testing.T) {
	cfg := smallConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var now sim.Time
	for round := 0; round < 25; round++ {
		count := 10 + rng.Intn(120)
		ents := make([]kv.Entity, 0, count)
		for i := 0; i < count; i++ {
			key := []byte(fmt.Sprintf("r%02d-%06d", round, i*3))
			ents = append(ents, kv.Entity{
				Key:   key,
				Hash:  xxhash.Sum32(key),
				Value: []byte(fmt.Sprintf("v-%d", i)),
			})
		}
		bg := buildGroup(ents, cfg.Geometry.PageSize, nil)
		ppa, err := d.nextRun(now, 1, bg.g.numPages)
		if err != nil {
			t.Fatal(err)
		}
		for p, img := range bg.pages {
			t2, err := d.Arr.Program(now, ppa+nand.PPA(p), img, nand.CauseCompaction)
			if err != nil {
				t.Fatal(err)
			}
			now = sim.Max(now, t2)
			d.Pool.MarkValid(ppa + nand.PPA(p))
		}
		bg.g.firstPPA = ppa

		for i := 0; i < count; i++ {
			key := []byte(fmt.Sprintf("r%02d-%06d", round, i*3))
			got, ok := d.searchGroupFree(bg.g, key, xxhash.Sum32(key))
			if !ok || string(got.Value) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("round %d: present key %q not found (ok=%v)", round, key, ok)
			}
			// Absent keys between present ones must miss.
			miss := []byte(fmt.Sprintf("r%02d-%06d", round, i*3+1))
			if _, ok := d.searchGroupFree(bg.g, miss, xxhash.Sum32(miss)); ok {
				t.Fatalf("round %d: absent key %q found", round, miss)
			}
		}
	}
}
