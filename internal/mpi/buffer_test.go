package mpi

import (
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	for _, d := range []Datatype{Float32, Float64, Int32, Int64} {
		v := NewVector(d, 10)
		if v.Len() != 10 || v.Bytes() != 10*d.Size() || v.Phantom() {
			t.Fatalf("%v: bad shape: len=%d bytes=%d", d, v.Len(), v.Bytes())
		}
		v.Set(3, 7)
		if v.At(3) != 7 {
			t.Fatalf("%v: Set/At roundtrip failed", d)
		}
		v.Fill(2)
		for i := 0; i < v.Len(); i++ {
			if v.At(i) != 2 {
				t.Fatalf("%v: Fill failed at %d", d, i)
			}
		}
	}
}

func TestDatatypeSizes(t *testing.T) {
	cases := map[Datatype]int{Float32: 4, Float64: 8, Int32: 4, Int64: 8}
	for d, want := range cases {
		if d.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", d, d.Size(), want)
		}
		if d.String() == "" {
			t.Errorf("%v has empty String()", d)
		}
	}
}

func TestPhantomVector(t *testing.T) {
	v := NewPhantom(Float64, 100)
	if !v.Phantom() || v.Bytes() != 800 {
		t.Fatal("phantom shape wrong")
	}
	v.Fill(3) // must be a no-op, not a crash
	if v.At(5) != 0 {
		t.Fatal("phantom At should read 0")
	}
	c := v.Clone()
	if !c.Phantom() || c.Len() != 100 {
		t.Fatal("phantom Clone lost shape")
	}
	s := v.Slice(10, 20)
	if !s.Phantom() || s.Len() != 10 {
		t.Fatal("phantom Slice lost shape")
	}
	// Copy between phantoms and mixed phantom/real validates shape only.
	v.CopyFrom(NewPhantom(Float64, 100))
	v.CopyFrom(NewVector(Float64, 100))
	NewVector(Float64, 100).CopyFrom(v)
}

func TestSliceSharesStorage(t *testing.T) {
	v := NewVector(Float64, 8)
	s := v.Slice(2, 5)
	s.Set(0, 42)
	if v.At(2) != 42 {
		t.Fatal("slice does not alias parent")
	}
	if s.Len() != 3 {
		t.Fatalf("slice len %d, want 3", s.Len())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := NewVector(Int64, 4)
	v.Fill(1)
	c := v.Clone()
	c.Set(0, 99)
	if v.At(0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	v := NewVector(Float64, 4)
	for _, bad := range []*Vector{NewVector(Float64, 5), NewVector(Float32, 4)} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Error("CopyFrom mismatch did not panic")
				}
			}()
			v.CopyFrom(bad)
		}()
	}
}

func TestOpsElementwise(t *testing.T) {
	check := func(op *Op, a, b, want float64) {
		t.Helper()
		for _, d := range []Datatype{Float32, Float64, Int32, Int64} {
			x := NewVector(d, 2)
			y := NewVector(d, 2)
			x.Fill(a)
			y.Fill(b)
			op.Apply(x, y)
			if x.At(0) != want || x.At(1) != want {
				t.Errorf("%s on %v: got %v, want %v", op.Name(), d, x.At(0), want)
			}
		}
	}
	check(Sum, 3, 4, 7)
	check(Prod, 3, 4, 12)
	check(Max, 3, 4, 4)
	check(Min, 3, 4, 3)
}

func TestUserOp(t *testing.T) {
	absmax := NewUserOp("absmax", func(acc, in float64) float64 {
		if in < 0 {
			in = -in
		}
		if in > acc {
			return in
		}
		return acc
	})
	x := NewVector(Float64, 2)
	y := NewVector(Float64, 2)
	x.Fill(3)
	y.Set(0, -10)
	y.Set(1, 1)
	absmax.Apply(x, y)
	if x.At(0) != 10 || x.At(1) != 3 {
		t.Fatalf("user op got (%v,%v)", x.At(0), x.At(1))
	}
	if absmax.Name() != "absmax" {
		t.Fatal("user op metadata wrong")
	}
	// User ops only define float64; other datatypes must panic clearly.
	defer func() {
		if recover() == nil {
			t.Fatal("user op on int32 did not panic")
		}
	}()
	absmax.Apply(NewVector(Int32, 1), NewVector(Int32, 1))
}

func TestOpApplyShapeMismatchPanics(t *testing.T) {
	for i, pair := range [][2]*Vector{
		{NewVector(Float64, 2), NewVector(Float64, 3)},
		{NewVector(Float64, 2), NewVector(Float32, 2)},
	} {
		pair := pair
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Sum.Apply(pair[0], pair[1])
		}()
	}
}

func TestOpOnPhantomIsNoop(t *testing.T) {
	p := NewPhantom(Float64, 4)
	Sum.Apply(p, NewPhantom(Float64, 4))
	Sum.Apply(p, NewVector(Float64, 4))
}

func TestBlockPartitionProperties(t *testing.T) {
	f := func(nSeed, pSeed uint16) bool {
		n := int(nSeed) % 5000
		p := 1 + int(pSeed)%64
		cnts, displs := BlockPartition(n, p)
		sum, off := 0, 0
		for i := 0; i < p; i++ {
			if cnts[i] < 0 || displs[i] != off {
				return false
			}
			// Sizes differ by at most one, non-increasing.
			if i > 0 && (cnts[i] > cnts[i-1] || cnts[i-1]-cnts[i] > 1) {
				return false
			}
			sum += cnts[i]
			off += cnts[i]
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// vecSink keeps TestVectorAllocs' results on the heap, as on the
// collective path.
var vecSink *Vector

// TestVectorAllocs pins the allocation count of each Vector operation on
// the collective hot path: a header plus its storage for a new real
// vector, a header alone for phantoms and views, and nothing for folds
// and copies.
func TestVectorAllocs(t *testing.T) {
	real := NewVector(Float32, 256)
	other := NewVector(Float32, 256)
	phantom := NewPhantom(Float32, 256)
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"NewVector", 2, func() { vecSink = NewVector(Float64, 64) }},
		{"NewPhantom", 1, func() { vecSink = NewPhantom(Float64, 64) }},
		{"Slice", 1, func() { vecSink = real.Slice(8, 72) }},
		{"Clone", 2, func() { vecSink = real.Clone() }},
		{"phantom Slice", 1, func() { vecSink = phantom.Slice(8, 72) }},
		{"phantom Clone", 1, func() { vecSink = phantom.Clone() }},
		{"Apply", 0, func() { Sum.Apply(real, other) }},
		{"CopyFrom", 0, func() { real.CopyFrom(other) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s: %v allocs per run, want %v", tc.name, got, tc.want)
		}
	}
}
