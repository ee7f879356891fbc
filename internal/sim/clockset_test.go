package sim

import "testing"

func TestClockSetOrdering(t *testing.T) {
	cs := NewClockSet(4, 0)
	cs.Set(0, 10)
	cs.Set(1, 3)
	cs.Set(2, 7)
	cs.Set(3, 3)
	if slot, at := cs.Earliest(); slot != 1 || at != 3 {
		t.Fatalf("Earliest = slot %d at %v; want the first slot at 3", slot, at)
	}
	if cs.Max() != 10 {
		t.Fatalf("Max = %v", cs.Max())
	}
	if m := cs.AlignToMax(); m != 10 {
		t.Fatalf("AlignToMax = %v", m)
	}
	for i := 0; i < cs.Len(); i++ {
		if slot, at := cs.Earliest(); at != 10 {
			t.Fatalf("slot %d at %v after barrier", slot, at)
		}
		cs.Set(i, 10+Time(i))
	}
}

func TestClockSetMonotone(t *testing.T) {
	cs := NewClockSet(2, 5)
	cs.Set(0, 3) // refuse to go backwards
	if _, at := cs.Earliest(); at != 5 {
		t.Fatalf("clock moved backwards to %v", at)
	}
	cs.Set(0, 9)
	if cs.Max() != 9 {
		t.Fatalf("Max = %v", cs.Max())
	}
}

func TestClockSetAlignTo(t *testing.T) {
	cs := NewClockSet(3, 0)
	cs.Set(0, 20)
	cs.Set(1, 4)
	cs.AlignTo(10) // slots 1 and 2 rise to 10; slot 0 keeps 20
	if slot, at := cs.Earliest(); slot != 1 || at != 10 {
		t.Fatalf("Earliest = slot %d at %v; want slot 1 at 10", slot, at)
	}
	cs.Set(1, 30)
	if slot, at := cs.Earliest(); slot != 2 || at != 10 {
		t.Fatalf("Earliest = slot %d at %v; want slot 2 at 10", slot, at)
	}
	if cs.Max() != 30 {
		t.Fatalf("Max = %v", cs.Max())
	}
}
