package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"anykey/internal/kv"
)

func TestPutGet(t *testing.T) {
	m := New(1)
	m.Put([]byte("b"), []byte("2"))
	m.Put([]byte("a"), []byte("1"))
	if e, ok := m.Get([]byte("a")); !ok || string(e.Value) != "1" {
		t.Fatalf("Get(a) = %+v %v", e, ok)
	}
	if _, ok := m.Get([]byte("c")); ok {
		t.Fatal("Get(c) found phantom key")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestOverwriteUpdatesBytes(t *testing.T) {
	m := New(1)
	m.Put([]byte("k"), []byte("short"))
	b0 := m.Bytes()
	m.Put([]byte("k"), []byte("much longer value"))
	if m.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", m.Len())
	}
	want := b0 - int64(len("short")) + int64(len("much longer value"))
	if m.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), want)
	}
}

func TestDeleteLeavesTombstone(t *testing.T) {
	m := New(1)
	m.Put([]byte("k"), []byte("v"))
	m.Delete([]byte("k"))
	e, ok := m.Get([]byte("k"))
	if !ok || !e.Tombstone {
		t.Fatalf("tombstone not visible: %+v %v", e, ok)
	}
	m.Delete([]byte("never-existed"))
	if e, ok := m.Get([]byte("never-existed")); !ok || !e.Tombstone {
		t.Fatal("tombstone for new key not buffered")
	}
}

func TestAllSorted(t *testing.T) {
	m := New(42)
	rng := rand.New(rand.NewSource(9))
	keys := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(300))
		keys[k] = true
		m.Put([]byte(k), []byte("v"))
	}
	all := m.All()
	if len(all) != len(keys) {
		t.Fatalf("All returned %d entries, want %d", len(all), len(keys))
	}
	for i := 1; i < len(all); i++ {
		if kv.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatalf("All not strictly sorted at %d: %q %q", i, all[i-1].Key, all[i].Key)
		}
	}
}

func TestAscendFrom(t *testing.T) {
	m := New(3)
	for _, k := range []string{"a", "c", "e", "g"} {
		m.Put([]byte(k), []byte(k))
	}
	var got []string
	m.AscendFrom([]byte("c"), func(e Entry) bool {
		got = append(got, string(e.Key))
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != "c" || got[1] != "e" {
		t.Fatalf("AscendFrom = %v", got)
	}
	// Start between keys.
	got = nil
	m.AscendFrom([]byte("b"), func(e Entry) bool {
		got = append(got, string(e.Key))
		return false
	})
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("AscendFrom(b) = %v", got)
	}
}

func TestReset(t *testing.T) {
	m := New(1)
	m.Put([]byte("k"), []byte("v"))
	m.Reset()
	if m.Len() != 0 || m.Bytes() != 0 || len(m.All()) != 0 {
		t.Fatal("Reset did not empty table")
	}
	m.Put([]byte("k2"), []byte("v2"))
	if m.Len() != 1 {
		t.Fatal("table unusable after Reset")
	}
}

// Property: the table agrees with a map oracle and All() is always sorted.
func TestOracleProperty(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
		Del bool
	}
	f := func(ops []op, seed int64) bool {
		m := New(seed)
		oracle := map[string]Entry{}
		for _, o := range ops {
			k := []byte{o.Key % 32}
			if o.Del {
				m.Delete(k)
				oracle[string(k)] = Entry{Key: k, Tombstone: true}
			} else {
				m.Put(k, o.Val)
				oracle[string(k)] = Entry{Key: k, Value: o.Val}
			}
		}
		if m.Len() != len(oracle) {
			return false
		}
		var sum int64
		keys := make([]string, 0, len(oracle))
		for k, e := range oracle {
			keys = append(keys, k)
			sum += e.Bytes()
			got, ok := m.Get([]byte(k))
			if !ok || got.Tombstone != e.Tombstone || !bytes.Equal(got.Value, e.Value) {
				return false
			}
		}
		if m.Bytes() != sum {
			return false
		}
		sort.Strings(keys)
		all := m.All()
		for i, k := range keys {
			if string(all[i].Key) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The unsynced list holds each key written since the last MarkSynced once,
// in first-write order, at its newest version; Reset empties it.
func TestUnsyncedList(t *testing.T) {
	unsynced := func(m *Table) string {
		var out []string
		m.Unsynced(func(e *Entry) {
			s := string(e.Key) + "=" + string(e.Value)
			if e.Tombstone {
				s = string(e.Key) + "=<del>"
			}
			out = append(out, s)
		})
		return fmt.Sprint(out)
	}
	m := New(1)
	if m.AnyUnsynced() {
		t.Fatal("fresh table has unsynced entries")
	}
	m.Put([]byte("b"), []byte("1"))
	m.Put([]byte("a"), []byte("1"))
	m.Put([]byte("b"), []byte("2"))
	m.Delete([]byte("c"))
	if got, want := unsynced(m), "[b=2 a=1 c=<del>]"; got != want || !m.AnyUnsynced() {
		t.Fatalf("unsynced = %s, want %s", got, want)
	}
	m.MarkSynced()
	if got := unsynced(m); got != "[]" || m.AnyUnsynced() || m.Len() != 3 {
		t.Fatalf("after MarkSynced: unsynced = %s, %d entries", got, m.Len())
	}
	m.Delete([]byte("a"))
	m.Put([]byte("d"), []byte("1"))
	if got, want := unsynced(m), "[a=<del> d=1]"; got != want {
		t.Fatalf("unsynced = %s, want %s", got, want)
	}
	m.Reset()
	m.Put([]byte("e"), []byte("1"))
	if got, want := unsynced(m), "[e=1]"; got != want {
		t.Fatalf("after Reset: unsynced = %s, want %s", got, want)
	}
}
