package faults

import (
	"testing"
)

// FuzzParseSpec drives arbitrary flag strings through ParseSpec. The
// parser must never panic; on acceptance the spec must be well-formed
// (known classes, no duplicates, intensity in (0,1]), render back through
// String into a string it re-parses identically, and instantiate into a
// plan that passes Validate.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("straggler")
	f.Add("straggler@0.25,link")
	f.Add("all@0.8")
	f.Add("all,straggler@1")
	f.Add("nic@0,link")
	f.Add("sharp@1.5")
	f.Add("link@")
	f.Add("@0.5")
	f.Add(",,,")
	f.Add("straggler@0.3,straggler@0.9")
	f.Add("all@NaN")
	f.Add(" link @ 0.5 ")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if spec == nil {
			return // empty input: faults off
		}
		if len(spec.Classes) == 0 {
			t.Fatalf("accepted %q with no classes", s)
		}
		known := map[Class]bool{}
		for _, c := range Classes() {
			known[c] = true
		}
		seen := map[Class]bool{}
		for _, c := range spec.Classes {
			if !known[c] {
				t.Fatalf("accepted %q with unknown class %q", s, c)
			}
			if seen[c] {
				t.Fatalf("accepted %q with duplicate class %q", s, c)
			}
			seen[c] = true
		}
		if !(spec.Intensity > 0 && spec.Intensity <= 1) {
			t.Fatalf("accepted %q with intensity %g", s, spec.Intensity)
		}
		// String must re-parse to the identical spec: same classes in the
		// same order, bit-identical intensity (%g round-trips float64).
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("String %q of accepted %q does not re-parse: %v", spec.String(), s, err)
		}
		if back == nil || len(back.Classes) != len(spec.Classes) || back.Intensity != spec.Intensity {
			t.Fatalf("round trip %q -> %q -> %+v, want %+v", s, spec.String(), back, spec)
		}
		for i := range back.Classes {
			if back.Classes[i] != spec.Classes[i] {
				t.Fatalf("round trip reordered classes: %v vs %v", back.Classes, spec.Classes)
			}
		}
		// An accepted spec must instantiate into a valid plan on a
		// representative shape.
		sh := Shape{Ranks: 12, Nodes: 3}
		plan := spec.Instantiate(sh)
		if err := plan.Validate(sh); err != nil {
			t.Fatalf("plan from %q fails validation: %v", s, err)
		}
	})
}
