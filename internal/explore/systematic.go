package explore

import (
	"fmt"
	"sort"
	"strings"

	"dpml/internal/sim"
	"dpml/internal/sweep"
)

// Systematic exploration, DPOR-lite.
//
// Cross-LP same-instant events commute (LP state is disjoint), so the
// only schedule choices that can change behavior are same-LP
// same-instant orderings — exactly what the kernel records as TiePairs.
// The frontier starts from the canonical schedule's observed ties and
// explores breadth first: each child schedule inverts one additional
// tie pair (as a TieSwap transposition) on top of its parent's swap
// set. Each explored schedule reports the ties *it* observed, so swaps
// compose down the tree and the frontier reaches orders no single
// inversion of the canonical schedule produces.
//
// Two bounds keep it tractable: a schedule budget (runs executed), and
// swap-set deduplication (a child identical to an already-tried swap
// set is not rerun). Distinct *behaviors* are counted separately via
// the schedule digest — two swap sets that produce the same fired
// order digest equal and count once.

// swapSetKey canonically encodes a swap set: each swap normalized to
// A < B, the set sorted. Swap order never matters behaviorally for
// disjoint pairs, and for overlapping pairs distinct compositions
// reach distinct keys through their sorted multiset anyway — the key
// only needs to dedupe, not to be a perfect behavioral quotient.
func swapSetKey(swaps []sim.TieSwap) string {
	norm := make([]sim.TieSwap, len(swaps))
	for i, s := range swaps {
		if s.A > s.B {
			s.A, s.B = s.B, s.A
		}
		norm[i] = s
	}
	sort.Slice(norm, func(i, j int) bool {
		a, b := norm[i], norm[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	var b strings.Builder
	for _, s := range norm {
		fmt.Fprintf(&b, "%d:%x:%x;", s.At, s.A, s.B)
	}
	return b.String()
}

// children generates the next-level swap sets from one outcome: the
// parent's swap set extended by each tie pair the schedule observed,
// skipping pairs already swapped (re-inverting an adjacent pair undoes
// it — that schedule is the parent, already visited).
func children(parent []sim.TieSwap, out *outcome, tried map[string]bool) [][]sim.TieSwap {
	var next [][]sim.TieSwap
	for _, p := range out.ties {
		s := sim.TieSwap{At: p.At, A: p.A, B: p.B}
		if s.A > s.B {
			s.A, s.B = s.B, s.A
		}
		dup := false
		for _, have := range parent {
			if have == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		child := make([]sim.TieSwap, len(parent)+1)
		copy(child, parent)
		child[len(parent)] = s
		key := swapSetKey(child)
		if tried[key] {
			continue
		}
		tried[key] = true
		next = append(next, child)
	}
	return next
}

// systematic runs the bounded BFS frontier. The canonical schedule
// (already run, with ties recorded) is the root; results, failures,
// and distinct digests accumulate into the caller's report state.
// Each wave runs its schedules across host workers; wave composition
// is deterministic, so reports are identical at every worker count.
func (rs *resolved) systematic(opts Options, rep *Report, errs *[]error, canonical *outcome, distinct map[uint64]bool) {
	budget := opts.MaxSchedules
	if budget <= 0 {
		budget = 192
	}
	tried := map[string]bool{swapSetKey(nil): true}
	frontier := children(nil, canonical, tried)
	runs := 0
	for len(frontier) > 0 && runs < budget {
		if rem := budget - runs; len(frontier) > rem {
			frontier = frontier[:rem]
		}
		outs, err := sweep.Map(opts.Workers, frontier, func(_ int, swaps []sim.TieSwap) (*outcome, error) {
			return rs.runOnce(&sim.Explore{Swaps: swaps}), nil
		})
		if err != nil {
			*errs = append(*errs, err)
			return
		}
		var next [][]sim.TieSwap
		for i, out := range outs {
			runs++
			rs.record(rep, errs, fmt.Sprintf("swap[%d]", runs), out, canonical)
			distinct[out.digest] = true
			next = append(next, children(frontier[i], out, tried)...)
		}
		frontier = next
	}
}
