package core

import (
	"testing"

	"dpml/internal/mpi"
)

// FuzzParseDesign drives arbitrary design names through ParseDesign. The
// parser must never panic; on acceptance the spec's parameters must lie
// inside the ranges the parser promises (the shape-independent half of
// Engine.Validate's contract), and parameterized specs must carry the
// design their name requested. Every accepted spec must print a name
// that parses back to it.
func FuzzParseDesign(f *testing.F) {
	f.Add("")
	f.Add("flat")
	f.Add("flat:ring")
	f.Add("flat:nope")
	f.Add("host-based")
	f.Add("dpml-8")
	f.Add("dpml-0")
	f.Add("dpml--3")
	f.Add("dpml-pipe-4x8")
	f.Add("dpml-pipe-4x")
	f.Add("dpml-pipe-x8")
	f.Add("sharp-node")
	f.Add("sharp-socket")
	f.Add("dualroot")
	f.Add("dualroot-s3")
	f.Add("dualroot-s0")
	f.Add("dualroot-s99999")
	f.Add("dualroot-s-1")
	f.Add("dualroot-sX")
	f.Add("genall")
	f.Add("genall-g4")
	f.Add("genall-g0")
	f.Add("genall-g1048577")
	f.Add("pap-sorted")
	f.Add("pap-ring")
	f.Add("pap-")
	f.Add("dualroot-s3x4")
	f.Add("dpml-8:ring")
	f.Add("dpml-1:rabenseifner")
	f.Add("dpml-pipe-4x8:reduce-bcast")
	f.Add("host-based:ring")
	f.Add("flat:recursive-doubling")
	f.Add("dpml-8:")
	f.Add("dpml-8:ring:ring")
	f.Add("sharp-node:ring")
	f.Add("dualroot-s3:ring")
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseDesign(name)
		if err != nil {
			return
		}
		if back, err := ParseDesign(spec.String()); err != nil || back != spec {
			t.Fatalf("accepted %q as %+v, but its name %q parses to %+v (%v)", name, spec, spec, back, err)
		}
		switch spec.Design {
		case DesignFlat:
			known := false
			for _, a := range mpi.FlatAlgorithms() {
				if spec.FlatAlg == a {
					known = true
				}
			}
			if !known {
				t.Fatalf("accepted %q with unknown flat algorithm %q", name, spec.FlatAlg)
			}
		case DesignDPML:
			if spec.Leaders < 1 || spec.Leaders > 1<<20 {
				t.Fatalf("accepted %q with leaders %d out of range", name, spec.Leaders)
			}
		case DesignDPMLPipelined:
			if spec.Leaders < 1 || spec.Leaders > 1<<20 {
				t.Fatalf("accepted %q with leaders %d out of range", name, spec.Leaders)
			}
			if spec.Chunks < 1 || spec.Chunks > 1024 {
				t.Fatalf("accepted %q with chunks %d out of range", name, spec.Chunks)
			}
		case DesignSharpNode, DesignSharpSocket, DesignPAPSorted, DesignPAPRing:
			// No parameters.
		case DesignDualRoot:
			if spec.Segments < 0 || spec.Segments > 1024 {
				t.Fatalf("accepted %q with segments %d out of range", name, spec.Segments)
			}
			if name != "dualroot" && spec.Segments == 0 {
				t.Fatalf("accepted parameterized %q but spec has auto segments", name)
			}
		case DesignGenAll:
			if spec.Groups < 0 || spec.Groups > 1<<20 {
				t.Fatalf("accepted %q with group size %d out of range", name, spec.Groups)
			}
			if name != "genall" && spec.Groups == 0 {
				t.Fatalf("accepted parameterized %q but spec has auto group size", name)
			}
		default:
			t.Fatalf("accepted %q with unknown design %q", name, spec.Design)
		}
	})
}
