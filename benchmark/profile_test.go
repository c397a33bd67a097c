package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb appends protocol-buffer fields.
type pb []byte

func (b *pb) varint(num int, v uint64) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3)
	*b = binary.AppendUvarint(*b, v)
}

func (b *pb) bytes(num int, data []byte) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3|2)
	*b = binary.AppendUvarint(*b, uint64(len(data)))
	*b = append(*b, data...)
}

func (b *pb) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	b.bytes(num, inner)
}

// testProfile encodes a CPU profile whose samples have the given stacks
// (function names, leaf first) and (count, nanoseconds) values. Location
// 100 holds two lines, an inlined fabric frame inside a core frame.
func testProfile(t *testing.T, stacks [][]string, values [][2]uint64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcIDs := map[string]uint64{}
	var msg pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(valueTypeType, st[0])
		vt.varint(valueTypeUnit, st[1])
		msg.bytes(profSampleType, vt)
	}
	fn := func(name string) uint64 {
		if id, ok := funcIDs[name]; ok {
			return id
		}
		id := uint64(len(funcIDs) + 1)
		funcIDs[name] = id
		strs = append(strs, name)
		var f pb
		f.varint(functionID, id)
		f.varint(functionName, uint64(len(strs)-1))
		msg.bytes(profFunction, f)
		return id
	}
	location := func(id uint64, fns ...string) {
		var loc pb
		loc.varint(locationID, id)
		for _, name := range fns {
			var line pb
			line.varint(lineFunctionID, fn(name))
			loc.bytes(locationLine, line)
		}
		msg.bytes(profLocation, loc)
	}
	location(100, "dpml/internal/fabric.(*FlowNet).refill", "dpml/internal/core.(*Engine).Allreduce")
	locIDs := map[string]uint64{}
	for i, stack := range stacks {
		var s pb
		for _, name := range stack {
			if name == "inlined" {
				s.varint(sampleLocationID, 100)
				continue
			}
			id, ok := locIDs[name]
			if !ok {
				id = uint64(len(locIDs) + 1)
				locIDs[name] = id
				location(id, name)
			}
			s.varint(sampleLocationID, id) // unpacked
		}
		s.packed(sampleValue, values[i][0], values[i][1])
		msg.bytes(profSample, s)
	}
	for _, s := range strs {
		msg.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerAttribution(t *testing.T) {
	stacks := [][]string{
		{"runtime.chanrecv1", "dpml/internal/sim.(*Proc).park", "dpml/internal/mpi.(*Rank).Wait", "main.main.func1"},
		{"dpml/internal/sim.(*Coordinator).Run.func1", "dpml/internal/sim.(*Kernel).runWindow"},
		{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"},
		{"inlined", "dpml/internal/mpi.(*World).Run"},
		{"runtime.memmove", "dpml/internal/topology.(*Job).Place", "dpml/internal/mpi.(*Rank).Send"},
		{"dpml/internal/sweep.Map[...].func1", "runtime.goexit"},
		{"main.(*workload).pass", "main.main"},
	}
	// The nanoseconds disagree with the counts, as in a profile whose
	// requested rate the kernel did not deliver; only counts are used.
	values := [][2]uint64{{3, 1}, {1, 1}, {2, 1}, {1, 1}, {4, 1}, {1, 1}, {1, 1}}
	ls, err := attribute(testProfile(t, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	wantAll := map[string]int64{"sim": 3, "coord": 1, "gc": 2, "fabric": 1, "mpi": 4, "bench": 1, "benchmark": 1}
	wantRuntime := map[string]int64{"sim": 3, "gc": 2, "mpi": 4}
	for _, l := range layers {
		if ls.all[l] != wantAll[l] || ls.runtime[l] != wantRuntime[l] {
			t.Errorf("layer %s: %d samples (%d runtime-leaf), want %d (%d)", l, ls.all[l], ls.runtime[l], wantAll[l], wantRuntime[l])
		}
	}
	if ls.total != 13 {
		t.Errorf("total = %d samples, want 13", ls.total)
	}
}

func TestProfileRejectsMalformedInput(t *testing.T) {
	full := testProfile(t, [][]string{{"runtime.memmove"}}, [][2]uint64{{1, 1}})
	raw, err := gzip.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	if _, err := msg.ReadFrom(raw); err != nil {
		t.Fatal(err)
	}
	var truncated bytes.Buffer
	zw := gzip.NewWriter(&truncated)
	zw.Write(msg.Bytes()[:msg.Len()-3])
	zw.Close()
	for name, gz := range map[string][]byte{"not gzip": []byte("pprof"), "truncated": truncated.Bytes()} {
		if _, err := attribute(gz); err == nil {
			t.Errorf("%s: attribute returned no error", name)
		}
	}
}
