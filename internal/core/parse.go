package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dpml/internal/mpi"
)

// ParseDesign resolves a design name, including parameterized forms,
// into a Spec. It is the one way to name a design: Spec.String prints
// this grammar back, so ParseDesign(s.String()) returns s. Recognized
// shapes:
//
//	flat, flat:<alg>                  flat algorithm on the world comm
//	host-based                        single-leader hierarchy (= dpml-1)
//	dpml-<l>[:<alg>]                  multi-leader with l leaders
//	dpml-pipe-<l>x<k>                 pipelined with l leaders, k>=2 chunks
//	sharp-node, sharp-socket          SHArP offload designs
//	dualroot, dualroot-s<n>           dual-root tree, n segments per half
//	genall, genall-g<n>               generalized allreduce, group size n
//	pap-sorted, pap-ring              arrival-pattern-aware designs
//	mvapich2, intelmpi, proposed      selectors: per size, the spec a
//	pap-aware                         decision table picks (see Resolve)
//
// <alg> is one of mpi.FlatAlgorithms(): the flat algorithm, or on
// dpml-<l> the inter-leader algorithm (default: chosen by size).
// Parameters are validated for range here (non-negative, within the
// same bounds Engine.Validate enforces shape-independently); shape-
// dependent checks (leaders vs ppn, groups vs procs) remain Validate's.
func ParseDesign(name string) (Spec, error) {
	base, alg, hasAlg := strings.Cut(name, ":")
	spec, err := parseBase(name, base)
	switch {
	case err != nil:
		return Spec{}, err
	case !hasAlg:
		return spec, nil
	case !slices.Contains(mpi.FlatAlgorithms(), mpi.Algorithm(alg)):
		return Spec{}, fmt.Errorf("core: unknown algorithm %q in design %q (known: %v)", alg, name, mpi.FlatAlgorithms())
	case spec.Design == DesignFlat || spec.Design == DesignDPML && spec.Chunks == 0:
		spec.Alg = mpi.Algorithm(alg)
	default:
		return Spec{}, fmt.Errorf("core: design %q: %s takes no :<alg> suffix", name, base)
	}
	return spec, nil
}

// parseBase parses a design name without its :<alg> suffix.
func parseBase(name, base string) (Spec, error) {
	if base == "host-based" {
		return HostBased(), nil
	}
	for _, s := range []Spec{Flat(mpi.AlgRecursiveDoubling), {Design: DesignSharpNode},
		{Design: DesignSharpSocket}, DualRoot(0), GenAll(0), PAPSorted(), PAPRing(),
		{Design: DesignMVAPICH2}, {Design: DesignIntelMPI}, {Design: DesignProposed}, {Design: DesignPAPAware}} {
		if s.String() == base {
			return s, nil
		}
	}
	if rest, ok := strings.CutPrefix(base, "dpml-pipe-"); ok {
		lStr, kStr, ok := strings.Cut(rest, "x")
		if !ok {
			return Spec{}, fmt.Errorf("core: design %q: want dpml-pipe-<l>x<k>", name)
		}
		l, err := parseParam(name, "leaders", lStr, 1, 1<<20)
		if err != nil {
			return Spec{}, err
		}
		k, err := parseParam(name, "chunks", kStr, 2, 1024)
		return DPMLPipelined(l, k), err
	}
	for _, f := range []struct {
		prefix, what string
		hi           int
		spec         func(int) Spec
	}{
		{"dpml-", "leaders", 1 << 20, DPML},
		{"dualroot-s", "segments", 1024, DualRoot},
		{"genall-g", "group size", 1 << 20, GenAll},
	} {
		if rest, ok := strings.CutPrefix(base, f.prefix); ok {
			v, err := parseParam(name, f.what, rest, 1, f.hi)
			return f.spec(v), err
		}
	}
	return Spec{}, fmt.Errorf("core: unknown design %q", name)
}

// parseParam parses one decimal design parameter and range-checks it.
func parseParam(design, what, s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("core: design %q: bad %s %q", design, what, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("core: design %q: %s %d out of range [%d,%d]", design, what, v, lo, hi)
	}
	return v, nil
}
