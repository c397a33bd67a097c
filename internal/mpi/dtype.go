package mpi

import "fmt"

// Datatype identifies the element type of a message buffer, mirroring the
// MPI predefined datatypes the paper's experiments use (MPI_FLOAT with
// MPI_SUM for the microbenchmarks, MPI_DOUBLE for HPCG's DDOT).
type Datatype uint8

// Supported datatypes.
const (
	Float32 Datatype = iota
	Float64
	Int32
	Int64
)

// dtypes is the one per-datatype table: each entry's name, element size
// and real-vector allocator. Everything else is generic over the element
// type.
var dtypes = [...]struct {
	name  string
	size  int
	alloc func(d Datatype, n int) *Vector
}{
	Float32: {"float32", 4, newReal[float32]},
	Float64: {"float64", 8, newReal[float64]},
	Int32:   {"int32", 4, newReal[int32]},
	Int64:   {"int64", 8, newReal[int64]},
}

// known reports whether d is one of the supported datatypes.
func (d Datatype) known() bool { return int(d) < len(dtypes) }

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	if !d.known() {
		panic(fmt.Sprintf("mpi: unknown datatype %d", d))
	}
	return dtypes[d].size
}

func (d Datatype) String() string {
	if !d.known() {
		return fmt.Sprintf("datatype(%d)", d)
	}
	return dtypes[d].name
}

// opKind selects the fold an Op performs.
type opKind uint8

const (
	opUser opKind = iota
	opSum
	opProd
	opMax
	opMin
)

// Op is a reduction operation. The predefined ops (Sum, Prod, Max, Min)
// work on every datatype; user-defined ops are built with NewUserOp.
type Op struct {
	name string
	kind opKind
	// user is the elementwise function of a user-defined op (kind
	// opUser), defined over float64 only.
	user func(acc, in float64) float64
}

// Name returns the op's label.
func (o *Op) Name() string { return o.name }

// Supports reports whether the op can reduce buffers of datatype d:
// predefined ops support every datatype, user-defined ops only float64.
func (o *Op) Supports(d Datatype) bool { return o.kind != opUser || d == Float64 }

// NewUserOp builds a user-defined elementwise reduction over float64
// buffers (the only datatype user ops must support, matching how the
// paper's applications use allreduce). f receives the accumulator and the
// incoming element and returns the new accumulator value. f must be
// commutative and associative, like MPI's predefined ops: every
// algorithm folds contributions in whatever order its schedule delivers
// them.
func NewUserOp(name string, f func(acc, in float64) float64) *Op {
	return &Op{name: name, kind: opUser, user: f}
}

// Predefined reduction operations.
var (
	Sum  = &Op{name: "sum", kind: opSum}
	Prod = &Op{name: "prod", kind: opProd}
	Max  = &Op{name: "max", kind: opMax}
	Min  = &Op{name: "min", kind: opMin}
)

// Apply reduces src into dst elementwise without charging any simulated
// compute time — Rank.Reduce is the cost-charging wrapper; Apply alone is
// for places where the arithmetic happens off-host (the SHArP switch
// tree). Both vectors must have the same datatype and length; phantom
// vectors reduce to a no-op.
func (o *Op) Apply(dst, src *Vector) {
	if dst.dtype != src.dtype {
		panic(fmt.Sprintf("mpi: op %s on mismatched datatypes %v and %v", o.name, dst.dtype, src.dtype))
	}
	if dst.n != src.n {
		panic(fmt.Sprintf("mpi: op %s on mismatched lengths %d and %d", o.name, dst.n, src.n))
	}
	if dst.data == nil || src.data == nil {
		return
	}
	if !o.Supports(dst.dtype) {
		panic(fmt.Sprintf("mpi: op %s unsupported for %v", o.name, dst.dtype))
	}
	dst.data.fold(o, src.data)
}
