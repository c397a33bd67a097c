package main

// profile.go decodes the gzipped pprof protocol buffer that runtime/pprof
// writes and charges each CPU sample to one simulator layer.
//
// A timer around a public call cannot split host time by layer: a rank's
// call into Allreduce parks its goroutine while every other proc runs, so
// the timer measures the whole simulation. The profile can: each sample
// is charged to the innermost stack frame that belongs to a layer, so the
// Go runtime work a layer causes (channel handoff, malloc, memmove) is
// charged to that layer too.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists every layer a sample can be charged to, in report order.
var layers = []string{"sim", "coord", "fabric", "mpi", "core", "bench", "benchmark", "gc"}

// layerOf maps a profiled function name to its layer, or "" when the
// function belongs to no layer: the Go runtime, the standard library, or
// a dpml package outside the layers (topology, trace, faults, ...), whose
// cost goes to the layer that called it. A stack with no layer frame at
// all, such as background GC, is charged to "gc".
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "benchmark"
	}
	rest, ok := strings.CutPrefix(fn, "dpml/internal/")
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "sim":
		if strings.HasPrefix(sym, "(*Coordinator)") {
			return "coord"
		}
		return "sim"
	case "fabric", "mpi", "core":
		return pkg
	case "bench", "sweep":
		return "bench"
	}
	return ""
}

// ownCode reports whether fn is dpml or benchmark code rather than Go
// runtime or standard-library code.
func ownCode(fn string) bool {
	return strings.HasPrefix(fn, "dpml/") || strings.HasPrefix(fn, "main.")
}

// layerSamples counts a CPU profile's samples per layer. Counts, not the
// profile's nanoseconds, because the kernel may deliver fewer profiling
// signals than the rate asked for while the profile still scales each
// sample by the requested period.
type layerSamples struct {
	all     map[string]int64 // samples charged to each layer
	runtime map[string]int64 // of those, samples whose leaf frame is runtime or standard-library code
	total   int64
}

// attribute decodes a gzipped CPU profile and charges each sample to a
// layer.
func attribute(gz []byte) (layerSamples, error) {
	ls := layerSamples{all: map[string]int64{}, runtime: map[string]int64{}}
	p, err := parseProfile(gz)
	if err != nil {
		return ls, err
	}
	countIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "samples" && p.str(st[1]) == "count" {
			countIdx = i
		}
	}
	if countIdx < 0 {
		return ls, errors.New("profile: no samples/count value")
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.sampleTypes) {
			return ls, fmt.Errorf("profile: sample has %d values, want %d", len(s.values), len(p.sampleTypes))
		}
		layer, leafIsRuntime, err := p.charge(s.locs)
		if err != nil {
			return ls, err
		}
		n := s.values[countIdx]
		ls.all[layer] += n
		if leafIsRuntime {
			ls.runtime[layer] += n
		}
		ls.total += n
	}
	return ls, nil
}

// charge walks a sample's stack from the leaf outwards, inlined frames
// first within each location, and returns the first layer found.
func (p *profile) charge(locs []uint64) (layer string, leafIsRuntime bool, err error) {
	leaf := true
	for _, id := range locs {
		fns, ok := p.locs[id]
		if !ok {
			return "", false, fmt.Errorf("profile: sample names unknown location %d", id)
		}
		for _, fid := range fns {
			name, ok := p.funcs[fid]
			if !ok {
				return "", false, fmt.Errorf("profile: location %d names unknown function %d", id, fid)
			}
			fn := p.str(name)
			if leaf {
				leafIsRuntime, leaf = !ownCode(fn), false
			}
			if l := layerOf(fn); l != "" {
				return l, leafIsRuntime, nil
			}
		}
	}
	return "gc", leafIsRuntime, nil
}

// profile is the part of a pprof Profile message the attribution reads.
type profile struct {
	sampleTypes [][2]int64          // (type, unit) string-table indexes
	samples     []sample            // stack and values of each sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string-table index
	strs        []string
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			var st [2]int64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case valueTypeType:
					st[0] = int64(v)
				case valueTypeUnit:
					st[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case profSample:
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocationID:
					s.locs, err = varints(s.locs, wire, v, data)
				case sampleValue:
					var vs []uint64
					vs, err = varints(nil, wire, v, data)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			if wire != 2 {
				return errors.New("profile: string table entry is not length-delimited")
			}
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// fields calls fn for each field of the protocol-buffer message b: v holds
// a varint or fixed-width value, data the payload of a length-delimited
// field.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends the values of a repeated varint field, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
