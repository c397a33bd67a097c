package explore

import (
	"fmt"
	"testing"
)

// TestScheduleSpaceGolden pins the systematic pass's reachable schedule
// space on a tiny scope: every design on cluster A at 2x3 with count 9,
// healthy and with all@0.7 (fault seed 7), under a 64-schedule budget.
// Each golden is "schedules distinct canonical-digest". A change to the
// kernel's tiebreaks, the recorded commutation points or any design's
// event structure shows up here.
func TestScheduleSpaceGolden(t *testing.T) {
	golden := []struct{ design, faults, want string }{
		{"flat", "", "65 31 0x4ad4c11281a86650"},
		{"flat", "all@0.7", "65 31 0x1e11bcf5feba8589"},
		{"host-based", "", "65 60 0xcc32dca396327047"},
		{"host-based", "all@0.7", "65 60 0xe0f6d5a5a775cb3d"},
		{"dpml-3", "", "65 65 0x6dc6cab24cf96ca8"},
		{"dpml-3", "all@0.7", "65 65 0x98d9f589eebcd3e8"},
		{"dpml-pipe-2x3", "", "65 64 0x9e84d313422c8642"},
		{"dpml-pipe-2x3", "all@0.7", "65 65 0x2c800b179bd7a68e"},
		{"sharp-node", "", "65 60 0x553a31ca2c781f25"},
		{"sharp-node", "all@0.7", "65 60 0x4454813dae70a159"},
		{"sharp-socket", "", "65 65 0x03c498e1d003b90d"},
		{"sharp-socket", "all@0.7", "65 65 0x8de821b045ea859b"},
		{"dualroot-s3", "", "65 41 0x8b79f8dab234c7c8"},
		{"dualroot-s3", "all@0.7", "65 41 0x42c8644065aa47a4"},
		{"genall-g4", "", "16 16 0x512d0af4f7e01cf0"},
		{"genall-g4", "all@0.7", "8 8 0xd398beefc7ed7967"},
		{"pap-sorted", "", "65 65 0xfcb96737e4447eae"},
		{"pap-sorted", "all@0.7", "64 64 0x8c0940669755e3e6"},
		{"pap-ring", "", "65 65 0xa0f1a52fd62a8ff2"},
		{"pap-ring", "all@0.7", "65 65 0xd567f09763e17258"},
	}
	covered := map[string]bool{}
	for _, g := range golden {
		g := g
		covered[g.design] = true
		name := g.design + "/healthy"
		if g.faults != "" {
			name = g.design + "/" + g.faults
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := Scenario{Cluster: "A", Nodes: 2, PPN: 3, Count: 9, Design: g.design, Faults: g.faults, FaultSeed: 7}
			rep, err := Run(sc, Options{Systematic: true, MaxSchedules: 64})
			if err != nil {
				t.Fatalf("exploration failed:\n%v", err)
			}
			if got := fmt.Sprintf("%d %d %s", rep.Schedules, rep.Distinct, rep.Canonical); got != g.want {
				t.Errorf("schedule space = %q, golden %q", got, g.want)
			}
		})
	}
	for _, d := range Designs() {
		if !covered[d] {
			t.Errorf("design %s has no golden row", d)
		}
	}
}
