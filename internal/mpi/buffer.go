package mpi

import (
	"fmt"
	"math"
)

// Vector is a typed message buffer. A vector either carries real elements
// (tests verify reductions bit-for-bit) or is phantom — it knows only its
// type and length, so large-scale sweeps skip data movement while every
// algorithm runs the identical communication schedule. Sub-vector views
// share storage with their parent, which is how partition-based
// algorithms (reduce-scatter, DPML partitions) address slices of a
// buffer without copies.
//
//dpml:owner shared
type Vector struct {
	dtype Datatype
	n     int
	data  store // nil for a phantom
}

// store holds a real vector's elements. One generic type, *elems[T],
// implements it for every datatype; the Vector methods check shapes and
// phantomness and leave only the element loops to the store.
type store interface {
	// slice and clone return a new real vector of datatype d over
	// elements [lo, hi) — shared with the store — or over a copy of
	// the whole store. sliceInto is slice through dst's header when
	// dst is a real vector of the same element type.
	slice(d Datatype, lo, hi int) *Vector
	sliceInto(dst *Vector, d Datatype, lo, hi int) *Vector
	clone(d Datatype) *Vector
	copyFrom(src store)
	fill(x float64)
	at(i int) float64
	set(i int, x float64)
	// fold reduces src into the store elementwise with op o.
	fold(o *Op, src store)
}

// element is the set of Go types behind the supported datatypes.
type element interface {
	float32 | float64 | int32 | int64
}

// elems is the store of one element type.
type elems[T element] []T

// wrap returns a real vector of datatype d over s. The Vector and the
// store holding s's slice header are one allocation: boxing the slice
// itself into the interface would allocate its header on every Slice and
// Clone.
func wrap[T element](d Datatype, s []T) *Vector {
	c := &struct {
		v Vector
		s elems[T]
	}{v: Vector{dtype: d, n: len(s)}, s: s}
	c.v.data = &c.s
	return &c.v
}

// newReal allocates a zeroed real vector of n elements of type T.
func newReal[T element](d Datatype, n int) *Vector { return wrap(d, make([]T, n)) }

func (s *elems[T]) slice(d Datatype, lo, hi int) *Vector { return wrap(d, (*s)[lo:hi]) }

func (s *elems[T]) sliceInto(dst *Vector, d Datatype, lo, hi int) *Vector {
	t, ok := dst.data.(*elems[T])
	if !ok {
		return s.slice(d, lo, hi)
	}
	*t = (*s)[lo:hi]
	dst.dtype, dst.n = d, hi-lo
	return dst
}

func (s *elems[T]) clone(d Datatype) *Vector {
	return wrap(d, append([]T(nil), *s...))
}

func (s *elems[T]) copyFrom(src store) { copy(*s, *src.(*elems[T])) }

func (s *elems[T]) fill(x float64) {
	for i := range *s {
		(*s)[i] = T(x)
	}
}

func (s *elems[T]) at(i int) float64 { return float64((*s)[i]) }

func (s *elems[T]) set(i int, x float64) { (*s)[i] = T(x) }

func (s *elems[T]) fold(o *Op, src store) {
	d := *s
	x := (*src.(*elems[T]))[:len(d)]
	switch o.kind {
	case opSum:
		for i := range d {
			d[i] += x[i]
		}
	case opProd:
		for i := range d {
			d[i] *= x[i]
		}
	case opMax:
		for i := range d {
			if x[i] > d[i] {
				d[i] = x[i]
			}
		}
	case opMin:
		for i := range d {
			if x[i] < d[i] {
				d[i] = x[i]
			}
		}
	}
}

// typed returns v's elements if they are of type T, else nil.
func typed[T element](v *Vector) []T {
	if s, ok := v.data.(*elems[T]); ok {
		return *s
	}
	return nil
}

// NewVector allocates a zeroed vector of n real elements.
func NewVector(d Datatype, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("mpi: NewVector(%d)", n))
	}
	if !d.known() {
		panic(fmt.Sprintf("mpi: unknown datatype %d", d))
	}
	return dtypes[d].alloc(d, n)
}

// NewPhantom builds a size-only vector of n elements: communication and
// compute costs are charged normally, but no bytes move.
func NewPhantom(d Datatype, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("mpi: NewPhantom(%d)", n))
	}
	return &Vector{dtype: d, n: n}
}

// Type returns the element datatype.
func (v *Vector) Type() Datatype { return v.dtype }

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Bytes returns the buffer size in bytes.
func (v *Vector) Bytes() int { return v.n * v.dtype.Size() }

// Phantom reports whether the vector is size-only.
func (v *Vector) Phantom() bool { return v.data == nil }

// Float64s returns the underlying float64 storage (nil for phantom or
// other datatypes).
func (v *Vector) Float64s() []float64 { return typed[float64](v) }

// Float32s returns the underlying float32 storage.
func (v *Vector) Float32s() []float32 { return typed[float32](v) }

// Slice returns a view of elements [lo, hi) sharing storage with v.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("mpi: Slice(%d,%d) of %d elements", lo, hi, v.n))
	}
	if v.data == nil {
		return &Vector{dtype: v.dtype, n: hi - lo}
	}
	return v.data.slice(v.dtype, lo, hi)
}

// SliceInto is Slice through dst's header: it re-points dst at elements
// [lo, hi) of v and returns it, and allocates a fresh view only when dst
// is nil or differs from v in phantomness or element type. dst must be a
// view its caller owns, made by Slice or SliceInto, that nothing else
// still reads: its old range is lost. Loops that walk the blocks of a
// buffer reuse one header per role this way.
func (v *Vector) SliceInto(dst *Vector, lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("mpi: SliceInto(%d,%d) of %d elements", lo, hi, v.n))
	}
	switch {
	case dst == nil:
		return v.Slice(lo, hi)
	case v.data == nil && dst.data == nil:
		dst.dtype, dst.n = v.dtype, hi-lo
		return dst
	case v.data == nil || dst.data == nil:
		return v.Slice(lo, hi)
	}
	return v.data.sliceInto(dst, v.dtype, lo, hi)
}

// Clone returns an independent copy of v (phantomness included).
func (v *Vector) Clone() *Vector {
	if v.data == nil {
		return &Vector{dtype: v.dtype, n: v.n}
	}
	return v.data.clone(v.dtype)
}

// CopyFrom copies src's elements into v. Types and lengths must match.
// Copies involving a phantom on either side only validate the shape.
func (v *Vector) CopyFrom(src *Vector) {
	if v.dtype != src.dtype || v.n != src.n {
		panic(fmt.Sprintf("mpi: CopyFrom shape mismatch: %v[%d] <- %v[%d]",
			v.dtype, v.n, src.dtype, src.n))
	}
	if v.data == nil || src.data == nil {
		return
	}
	v.data.copyFrom(src.data)
}

// Fill sets every element to x (converted to the datatype); no-op on
// phantoms.
func (v *Vector) Fill(x float64) {
	if v.data != nil {
		v.data.fill(x)
	}
}

// Poison overwrites every element with a marker no test input holds: NaN
// for the float types, all-ones bits for the integer types. No-op on
// phantoms. The race build poisons recycled storage, so a read through
// a stale reference corrupts a checked result instead of passing.
func (v *Vector) Poison() {
	x := -1.0 // all-ones bits once converted to an integer type
	if v.dtype == Float32 || v.dtype == Float64 {
		x = math.NaN()
	}
	v.Fill(x)
}

// At returns element i as a float64 (phantoms read as 0).
func (v *Vector) At(i int) float64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("mpi: At(%d) of %d elements", i, v.n))
	}
	if v.data == nil {
		return 0
	}
	return v.data.at(i)
}

// Set stores x into element i (converted to the datatype); no-op on
// phantoms.
func (v *Vector) Set(i int, x float64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("mpi: Set(%d) of %d elements", i, v.n))
	}
	if v.data != nil {
		v.data.set(i, x)
	}
}
