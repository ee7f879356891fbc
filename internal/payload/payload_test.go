package payload

import (
	"bytes"
	"testing"
)

// fillReference is the historical workload.fillDeterministic, kept verbatim
// as the compatibility oracle: Fill must reproduce it bit for bit or every
// committed golden checksum breaks.
func fillReference(dst []byte, seed uint64) {
	x := seed | 1
	for i := range dst {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		dst[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
	}
}

func TestFillMatchesReference(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 0x9E3779B97F4A7C15, 1<<64 - 1, 424242} {
		for _, n := range []int{0, 1, 7, 16, 43, 4096} {
			want := make([]byte, n)
			got := make([]byte, n)
			fillReference(want, seed)
			Fill(got, seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("Fill(seed=%#x, n=%d) diverges from reference", seed, n)
			}
		}
	}
}

func TestStartIdempotentOnState(t *testing.T) {
	st := Start(12345)
	if Start(uint64(st)) != st {
		t.Fatal("a stream-start state must be reusable as its own seed")
	}
}

func TestVerifyFrom(t *testing.T) {
	const seed = 991
	v := make([]byte, 128)
	Fill(v, seed)

	st, ok := Start(seed).VerifyFrom(v[:64])
	if !ok {
		t.Fatal("prefix failed verification against its own stream")
	}
	if _, ok := st.VerifyFrom(v[64:]); !ok {
		t.Fatal("continuation failed verification from the resumed state")
	}
	bad := append([]byte(nil), v...)
	bad[100] ^= 1
	if _, ok := Start(seed).VerifyFrom(bad); ok {
		t.Fatal("corrupted bytes passed verification")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	Enable()
	v := make([]byte, 256)
	const seed = 0xDEADBEEF
	Fill(v, seed)
	Note(v, seed)

	got, ok := Lookup(v)
	if !ok || got != seed {
		t.Fatalf("Lookup = (%#x, %v), want (%#x, true)", got, ok, uint64(seed))
	}
	// A strict prefix of the value (a log first-fragment chunk) resolves to
	// the same entry.
	if got, ok := Lookup(v[:40]); !ok || got != seed {
		t.Fatalf("prefix Lookup = (%#x, %v), want (%#x, true)", got, ok, uint64(seed))
	}
	// Below MinLookup nothing is registered or returned.
	if _, ok := Lookup(v[:MinLookup-1]); ok {
		t.Fatal("Lookup succeeded below MinLookup")
	}
	// The candidate must verify; a different byte string colliding into the
	// slot must fail VerifyFrom (the caller-side safety net).
	other := append([]byte(nil), v...)
	other[200] ^= 0xFF
	cand, ok := Lookup(other) // same prefix, same slot
	if !ok {
		t.Fatal("prefix-matched lookup should return the candidate")
	}
	if _, ok := Start(cand).VerifyFrom(other); ok {
		t.Fatal("VerifyFrom accepted bytes the stream did not generate")
	}
}

// referenceState is the state after n serial steps of the stream at seed.
func referenceState(seed uint64, n int) State {
	x := seed | 1
	for ; n > 0; n-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	return State(x)
}

var kernelSeeds = []uint64{0, 1, 2, 0x9E3779B97F4A7C15, 1<<64 - 1}

// TestFillKernelEveryLength covers every length through two rounds plus
// one: none, one and two whole rounds, each with every serial tail.
func TestFillKernelEveryLength(t *testing.T) {
	for _, seed := range kernelSeeds {
		for n := 0; n <= 2*round+1; n++ {
			want := make([]byte, n)
			got := make([]byte, n)
			fillReference(want, seed)
			st := Start(seed).Fill(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("Fill(seed=%#x, n=%d) diverges from reference", seed, n)
			}
			if ref := referenceState(seed, n); st != ref {
				t.Fatalf("Fill(seed=%#x, n=%d) returned state %#x, want %#x", seed, n, st, ref)
			}
		}
	}
}

// resumeLen is 1 KiB + 37 bytes: four rounds and a serial tail, so every
// split point lands the two chunks on a different mix of lanes and tail.
const resumeLen = 1024 + 37

func TestStateResume(t *testing.T) {
	const seed = 77
	full := make([]byte, resumeLen)
	end := Start(seed).Fill(full)
	got := make([]byte, resumeLen)
	for k := 0; k <= resumeLen; k++ {
		clear(got)
		st := Start(seed).Fill(got[:k])
		if st.Fill(got[k:]) != end || !bytes.Equal(got, full) {
			t.Fatalf("Fill split at %d diverges from the one-shot fill", k)
		}
	}
}

func TestVerifyFromEveryByte(t *testing.T) {
	const seed = 78
	full := make([]byte, resumeLen)
	end := Start(seed).Fill(full)
	for k := 0; k <= resumeLen; k++ {
		st, ok := Start(seed).VerifyFrom(full[:k])
		if !ok || st != Start(seed).Fill(make([]byte, k)) {
			t.Fatalf("VerifyFrom of the first %d bytes: ok=%v, state differs from Fill's", k, ok)
		}
		if st, ok = st.VerifyFrom(full[k:]); !ok || st != end {
			t.Fatalf("VerifyFrom resumed at %d: ok=%v, state differs from Fill's", k, ok)
		}
	}
	bad := append([]byte(nil), full...)
	for i := range bad {
		bad[i] ^= 0x20
		if _, ok := Start(seed).VerifyFrom(bad); ok {
			t.Fatalf("VerifyFrom accepted a flipped byte at %d", i)
		}
		bad[i] ^= 0x20
	}
}

func TestPayloadZeroAlloc(t *testing.T) {
	for _, n := range []int{43, round + 5, 4096} {
		buf := make([]byte, n)
		Fill(buf, 5)
		if a := testing.AllocsPerRun(100, func() { Start(5).Fill(buf) }); a != 0 {
			t.Errorf("Fill of %d bytes: %.1f allocs, want 0", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { Start(5).VerifyFrom(buf) }); a != 0 {
			t.Errorf("VerifyFrom of %d bytes: %.1f allocs, want 0", n, a)
		}
	}
}

// FuzzFill checks the kernel against the serial reference at arbitrary
// lengths and seeds, filled and verified in two chunks split anywhere. Its
// seed corpus is testdata/fuzz/FuzzFill.
func FuzzFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, split uint16) {
		size := int(n) % (16*round + 1)
		k := int(split) % (size + 1)
		want := make([]byte, size)
		fillReference(want, seed)
		got := make([]byte, size)
		st := Start(seed).Fill(got[:k])
		end := st.Fill(got[k:])
		if !bytes.Equal(got, want) || end != referenceState(seed, size) {
			t.Fatalf("Fill(n=%d, seed=%#x) split at %d diverges from reference", size, seed, k)
		}
		if vs, ok := Start(seed).VerifyFrom(want[:k]); !ok || vs != st {
			t.Fatalf("VerifyFrom(n=%d, seed=%#x) rejects its own prefix of %d", size, seed, k)
		}
		if ve, ok := st.VerifyFrom(want[k:]); !ok || ve != end {
			t.Fatalf("VerifyFrom(n=%d, seed=%#x) rejects the suffix after %d", size, seed, k)
		}
	})
}
