package sim

import "testing"

// TestExploreZeroValueBitTransparent pins down that installing a
// zero-value Explore config (salt 0, no swaps) reproduces the canonical
// schedule exactly: the behavior digest — message logs, final clock,
// event count — matches the nil-explore run even though the Sleep fast
// path is disabled and every wakeup becomes a real event.
func TestExploreZeroValueBitTransparent(t *testing.T) {
	base, _, _ := shardScenarioDigest(t, 1, nil)
	got, sched, _ := shardScenarioDigest(t, 1, &Explore{})
	if got != base {
		t.Errorf("zero-value Explore changed behavior: %x vs %x", got, base)
	}
	if sched == 0 {
		t.Errorf("exploring run reported zero schedule digest")
	}
}

// TestExploreShardInvariance is the exploration analogue of
// TestShardCountInvariance: for a fixed salt, the perturbed schedule —
// behavior digest, schedule digest, and recorded tie pairs — must be
// identical at every shard count. This is the property the Sleep
// fast-path gate exists for.
func TestExploreShardInvariance(t *testing.T) {
	for _, salt := range []uint64{0, 1, 0x5eed} {
		x := func() *Explore { return &Explore{Salt: salt} }
		base, sched, ties := shardScenarioDigest(t, 1, x())
		for _, shards := range []int{2, 3, 4, 8, 16} {
			got, gs, gt := shardScenarioDigest(t, shards, x())
			if got != base {
				t.Errorf("salt=%#x shards=%d: behavior digest differs from serial", salt, shards)
			}
			if gs != sched {
				t.Errorf("salt=%#x shards=%d: schedule digest %#x != serial %#x", salt, shards, gs, sched)
			}
			if len(gt) != len(ties) {
				t.Fatalf("salt=%#x shards=%d: %d tie pairs != serial %d", salt, shards, len(gt), len(ties))
			}
			for i := range gt {
				if gt[i] != ties[i] {
					t.Fatalf("salt=%#x shards=%d: tie[%d] = %+v != serial %+v", salt, shards, i, gt[i], ties[i])
				}
			}
		}
	}
}

// TestExploreSaltsVarySchedule checks the perturbation actually
// explores: distinct salts must reach behaviorally distinct schedules
// (the scenario is built to collide timestamps), and the schedule
// digest must distinguish them.
func TestExploreSaltsVarySchedule(t *testing.T) {
	sums := make(map[[32]byte][]uint64)
	scheds := make(map[uint64]bool)
	for _, salt := range []uint64{0, 1, 2, 3} {
		sum, sched, _ := shardScenarioDigest(t, 1, &Explore{Salt: salt})
		sums[sum] = append(sums[sum], salt)
		scheds[sched] = true
	}
	if len(sums) < 2 {
		t.Errorf("4 salts reached only %d distinct behaviors", len(sums))
	}
	if len(scheds) != len(sums) {
		t.Errorf("%d distinct behaviors but %d distinct schedule digests", len(sums), len(scheds))
	}
	// Same salt twice: exploration is itself deterministic.
	a, sa, _ := shardScenarioDigest(t, 1, &Explore{Salt: 7})
	b, sb, _ := shardScenarioDigest(t, 1, &Explore{Salt: 7})
	if a != b || sa != sb {
		t.Errorf("same salt produced different schedules")
	}
}

// tieOrderScenario runs two same-instant events on one LP and reports
// the order they fired in, plus the run's tie pairs and digest.
func tieOrderScenario(t *testing.T, x *Explore) (order []int, sched uint64, ties []TiePair) {
	t.Helper()
	co := NewCoordinator(1, 1, 10)
	co.SetExplore(x)
	k := co.KernelFor(0)
	k.AtOn(0, 50, func() { order = append(order, 1) })
	k.AtOn(0, 50, func() { order = append(order, 2) })
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	return order, co.ScheduleDigest(), co.TiePairs()
}

// TestExploreTieSwapInvertsPair drives the systematic explorer's core
// move end to end: record a same-LP same-instant tie from a canonical
// run, re-run with that pair as a TieSwap, and observe the two events
// fire in the opposite order with a different schedule digest.
func TestExploreTieSwapInvertsPair(t *testing.T) {
	order, sched, ties := tieOrderScenario(t, &Explore{})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("canonical order = %v, want [1 2]", order)
	}
	if len(ties) != 1 {
		t.Fatalf("recorded %d tie pairs, want 1: %+v", len(ties), ties)
	}
	swapped, sched2, _ := tieOrderScenario(t, &Explore{Swaps: []TieSwap{{At: ties[0].At, A: ties[0].A, B: ties[0].B}}})
	if len(swapped) != 2 || swapped[0] != 2 || swapped[1] != 1 {
		t.Fatalf("swapped order = %v, want [2 1]", swapped)
	}
	if sched2 == sched {
		t.Errorf("swap left schedule digest unchanged (%#x)", sched)
	}
	// Swapping a pair twice composes to the identity.
	s := ties[0]
	again, sched3, _ := tieOrderScenario(t, &Explore{Swaps: []TieSwap{{At: s.At, A: s.A, B: s.B}, {At: s.At, A: s.A, B: s.B}}})
	if len(again) != 2 || again[0] != 1 || again[1] != 2 {
		t.Fatalf("double swap order = %v, want [1 2]", again)
	}
	if sched3 != sched {
		t.Errorf("double swap digest %#x != canonical %#x", sched3, sched)
	}
}

// TestExploreSaltReachesBothOrders: over a handful of salts, a two-event
// tie must be observed in both orders — the salted bijection is not
// order-preserving.
func TestExploreSaltReachesBothOrders(t *testing.T) {
	seen := make(map[int]bool)
	for salt := uint64(0); salt < 8; salt++ {
		order, _, _ := tieOrderScenario(t, &Explore{Salt: salt})
		seen[order[0]] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("8 salts never inverted the tie: observed first-firers %v", seen)
	}
}
