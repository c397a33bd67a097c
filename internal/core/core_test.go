package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// buildEngine creates a world + engine on a trimmed cluster.
func buildEngine(t *testing.T, cl *topology.Cluster, nodes, ppn int) *Engine {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(mpi.NewWorld(job, mpi.Config{}))
}

// verifySpec runs one allreduce with random inputs and checks every rank
// against the sequential reduction.
func verifySpec(t *testing.T, cl *topology.Cluster, nodes, ppn int, s Spec, count int, seed int64) {
	t.Helper()
	e := buildEngine(t, cl, nodes, ppn)
	p := e.W.Job.NumProcs()
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, p)
	want := make([]float64, count)
	for k := range in {
		in[k] = make([]float64, count)
		for i := range in[k] {
			in[k][i] = float64(rng.Intn(512) - 256)
			want[i] += in[k][i]
		}
	}
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, count)
		copy(v.Float64s(), in[r.Rank()])
		if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			if v.At(i) != want[i] {
				t.Errorf("%v on %s %dx%d n=%d: rank %d elem %d: got %v want %v",
					s, cl.Name, nodes, ppn, count, r.Rank(), i, v.At(i), want[i])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v on %s %dx%d: %v", s, cl.Name, nodes, ppn, err)
	}
}

func TestDPMLCorrectAcrossLeaderCounts(t *testing.T) {
	for _, l := range []int{1, 2, 3, 4, 7} {
		for _, count := range []int{1, 5, 64, 999} {
			verifySpec(t, topology.ClusterB(), 4, 7, DPML(l), count, int64(l*100+count))
		}
	}
}

func TestDPMLCorrectOnAllClusters(t *testing.T) {
	for _, cl := range []*topology.Cluster{topology.ClusterA(), topology.ClusterB(), topology.ClusterC(), topology.ClusterD()} {
		ppn := 4
		verifySpec(t, cl, 3, ppn, DPML(2), 257, 42)
	}
}

func TestDPMLNonPowerOfTwoNodes(t *testing.T) {
	// 5 nodes exercises the fold path in the inter-leader allreduce.
	verifySpec(t, topology.ClusterB(), 5, 4, DPML(4), 123, 7)
	verifySpec(t, topology.ClusterB(), 7, 3, DPML(2), 55, 8)
}

func TestDPMLSingleNode(t *testing.T) {
	// h=1: inter-node phase degenerates; shm phases must still reduce.
	verifySpec(t, topology.ClusterB(), 1, 8, DPML(4), 100, 9)
}

func TestDPMLSingleProcessPerNode(t *testing.T) {
	verifySpec(t, topology.ClusterB(), 4, 1, DPML(1), 64, 10)
}

func TestDPMLLeadersExceedingElements(t *testing.T) {
	// n < l: some leaders own empty partitions.
	verifySpec(t, topology.ClusterB(), 2, 8, DPML(8), 3, 11)
}

func TestDPMLExplicitInterAlg(t *testing.T) {
	for _, alg := range mpi.FlatAlgorithms() {
		s := Spec{Design: DesignDPML, Leaders: 2, Alg: alg}
		verifySpec(t, topology.ClusterB(), 4, 4, s, 77, 12)
	}
}

func TestPipelinedCorrect(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		verifySpec(t, topology.ClusterC(), 4, 4, DPMLPipelined(2, k), 513, int64(13+k))
	}
	// Non-power-of-two node count with pipelining.
	verifySpec(t, topology.ClusterC(), 5, 4, DPMLPipelined(4, 4), 999, 14)
	// Chunks exceeding elements.
	verifySpec(t, topology.ClusterC(), 2, 2, DPMLPipelined(1, 16), 5, 15)
}

func TestFlatDesign(t *testing.T) {
	for _, alg := range mpi.FlatAlgorithms() {
		verifySpec(t, topology.ClusterB(), 3, 2, Flat(alg), 100, 16)
	}
}

func TestSharpDesignsCorrect(t *testing.T) {
	for _, s := range []Spec{{Design: DesignSharpNode}, {Design: DesignSharpSocket}} {
		for _, shape := range []struct{ nodes, ppn int }{{2, 1}, {4, 4}, {3, 7}, {4, 28}} {
			verifySpec(t, topology.ClusterA(), shape.nodes, shape.ppn, s, 128, 17)
		}
	}
}

func TestSharpFallsBackBeyondPayloadLimit(t *testing.T) {
	// 1M floats far exceeds MaxPayload; must still produce the right
	// answer via the host-based fallback.
	verifySpec(t, topology.ClusterA(), 2, 4, Spec{Design: DesignSharpNode}, 64<<10, 18)
}

func TestSharpUnavailableRejected(t *testing.T) {
	e := buildEngine(t, topology.ClusterC(), 2, 2)
	if err := e.Validate(Spec{Design: DesignSharpNode}); err == nil {
		t.Fatal("SHArP design accepted on Omni-Path cluster")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	e := buildEngine(t, topology.ClusterA(), 2, 4)
	bad := []Spec{
		{Design: "nope"},
		{Design: DesignDPML, Leaders: 0},
		{Design: DesignDPML, Leaders: 5}, // > ppn
		{Design: DesignDPML, Leaders: 2, Chunks: -1},
		{Design: DesignDPML, Leaders: 4, Chunks: 1}, // dpml-pipe-4x1 is dpml-4
		{Design: DesignDPML, Leaders: 2, Chunks: 5000},
		{Design: DesignDPML, Leaders: 2, Chunks: 8, Alg: mpi.AlgReduceBcast}, // pipelined phase is Rabenseifner
		{Design: DesignFlat, Alg: "bogus"},
	}
	for _, s := range bad {
		if err := e.Validate(s); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
	good := []Spec{
		HostBased(),
		DPML(4),
		DPMLPipelined(2, 8),
		Flat(mpi.AlgRing),
		{Design: DesignSharpNode},
		{Design: DesignSharpSocket},
		{Design: DesignMVAPICH2},
		{Design: DesignIntelMPI},
		{Design: DesignProposed},
		{Design: DesignPAPAware},
	}
	for _, s := range good {
		if err := e.Validate(s); err != nil {
			t.Errorf("Validate rejected %+v: %v", s, err)
		}
	}
}

// TestValidateRejectsDepthBeyondTagWindow: a pipeline depth whose tags
// overflow one collective's window on the job's node count is an error,
// not a silently shallower pipeline. At 600 nodes (512 in the folded
// group, 9 halvings) the window holds 862 chunks; at 64 nodes it holds
// 1260, above the parser's 1024.
func TestValidateRejectsDepthBeyondTagWindow(t *testing.T) {
	s := DPMLPipelined(1, 1000)
	if err := buildEngine(t, topology.ClusterB(), 600, 1).Validate(s); err == nil {
		t.Errorf("Validate accepted %s on 600 nodes", s)
	}
	if err := buildEngine(t, topology.ClusterB(), 64, 1).Validate(s); err != nil {
		t.Errorf("Validate rejected %s on 64 nodes: %v", s, err)
	}
}

func TestEngineSocketLayout(t *testing.T) {
	// socketLeader maps each local rank to its socket's first local rank.
	leaders := func(e *Engine) []int {
		var out []int
		for local, l := range e.socketLeader {
			if l == local {
				out = append(out, local)
			}
		}
		return out
	}
	e := buildEngine(t, topology.ClusterA(), 2, 28)
	if l := leaders(e); len(l) != 2 || l[0] != 0 || l[1] != 14 {
		t.Fatalf("socket leaders = %v, want [0 14]", l)
	}
	if e.socketLeader[13] != 0 || e.socketLeader[27] != 14 {
		t.Fatalf("socket leader map = %v", e.socketLeader)
	}
	eKNL := buildEngine(t, topology.ClusterD(), 2, 16)
	if l := leaders(eKNL); len(l) != 1 || l[0] != 0 {
		t.Fatalf("KNL socket leaders = %v, want [0]", l)
	}
}

// latencyOf measures the average per-iteration virtual time of iters
// allreduces under a spec.
func latencyOf(t *testing.T, cl *topology.Cluster, nodes, ppn int, s Spec, bytes, iters int) sim.Duration {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mpi.NewWorld(job, mpi.Config{}))
	count := bytes / 4
	var elapsed sim.Duration
	err = e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, count)
		// Warmup.
		if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
			return err
		}
		r.Barrier(e.W.CommWorld())
		start := r.Now()
		for i := 0; i < iters; i++ {
			if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
				return err
			}
		}
		r.Barrier(e.W.CommWorld())
		if r.Rank() == 0 {
			elapsed = r.Now().Sub(start) / sim.Duration(iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestMoreLeadersWinAtLargeMessages(t *testing.T) {
	// The central claim (Figs 4-7): at 512KB, 16 leaders should be
	// several times faster than 1 leader.
	for _, cl := range []*topology.Cluster{topology.ClusterB(), topology.ClusterC()} {
		t1 := latencyOf(t, cl, 8, 16, DPML(1), 512<<10, 3)
		t16 := latencyOf(t, cl, 8, 16, DPML(16), 512<<10, 3)
		speedup := float64(t1) / float64(t16)
		if speedup < 2 {
			t.Errorf("%s: 16-leader speedup at 512KB = %.2fx, want > 2x", cl.Name, speedup)
		}
	}
}

func TestOneLeaderFineAtSmallMessages(t *testing.T) {
	// At 64B, extra leaders must not help much (paper: "sometimes causes
	// slight degradation").
	cl := topology.ClusterB()
	t1 := latencyOf(t, cl, 4, 16, DPML(1), 64, 3)
	t16 := latencyOf(t, cl, 4, 16, DPML(16), 64, 3)
	if float64(t1)/float64(t16) > 1.5 {
		t.Errorf("16 leaders 'win' %.2fx at 64B; should be near or below 1x",
			float64(t1)/float64(t16))
	}
}

func TestSharpBeatsHostAtSmallLosesAtLarge(t *testing.T) {
	cl := topology.ClusterA()
	// ppn=1, 16 nodes, tiny message: SHArP should win clearly (Fig 8).
	host := latencyOf(t, cl, 16, 1, HostBased(), 8, 5)
	sharp := latencyOf(t, cl, 16, 1, Spec{Design: DesignSharpNode}, 8, 5)
	if sharp >= host {
		t.Errorf("SHArP (%v) not faster than host-based (%v) at 8B ppn=1", sharp, host)
	}
	// 4KB: host-based should win (Fig 8 crossover).
	host4k := latencyOf(t, cl, 16, 1, HostBased(), 4<<10, 5)
	sharp4k := latencyOf(t, cl, 16, 1, Spec{Design: DesignSharpNode}, 4<<10, 5)
	if sharp4k <= host4k {
		t.Errorf("SHArP (%v) still faster than host-based (%v) at 4KB", sharp4k, host4k)
	}
}

func TestSocketLeaderBeatsNodeLeaderAtFullSubscription(t *testing.T) {
	cl := topology.ClusterA()
	node := latencyOf(t, cl, 8, 28, Spec{Design: DesignSharpNode}, 256, 3)
	socket := latencyOf(t, cl, 8, 28, Spec{Design: DesignSharpSocket}, 256, 3)
	if socket >= node {
		t.Errorf("socket-leader (%v) not faster than node-leader (%v) at ppn=28", socket, node)
	}
}

func TestLibrarySelectorsRun(t *testing.T) {
	for _, lib := range Libraries() {
		e := buildEngine(t, topology.ClusterA(), 4, 8)
		err := e.W.Run(func(r *mpi.Rank) error {
			for _, count := range []int{4, 1 << 10, 64 << 10} {
				v := mpi.NewVector(mpi.Float32, count)
				v.Fill(1)
				if err := e.Allreduce(r, lib, mpi.Sum, v); err != nil {
					return err
				}
				if v.At(0) != float64(e.W.Job.NumProcs()) {
					t.Errorf("%s at %d floats: got %v, want %d",
						lib, count, v.At(0), e.W.Job.NumProcs())
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", lib, err)
		}
	}
}

func TestBestLeadersMonotoneAndBounded(t *testing.T) {
	prev := 0
	for _, bytes := range []int{4, 512, 2 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20} {
		l := BestLeaders(28, bytes)
		if l < 1 || l > 28 {
			t.Fatalf("%dB: leaders %d out of range", bytes, l)
		}
		if l < prev {
			t.Fatalf("leader count decreased from %d to %d at %dB", prev, l, bytes)
		}
		prev = l
	}
	if l := BestLeaders(4, 1<<20); l > 4 {
		t.Fatal("BestLeaders must respect ppn cap")
	}
}

// TestSpecString pins the canonical names: Spec.String prints
// ParseDesign's grammar, and each name parses back to its spec. Names
// of configurations that have another name, or none, are rejected.
func TestSpecString(t *testing.T) {
	cases := map[string]Spec{
		"flat":                Flat(mpi.AlgRecursiveDoubling),
		"flat:ring":           Flat(mpi.AlgRing),
		"dpml-1":              HostBased(),
		"dpml-4":              DPML(4),
		"dpml-1:rabenseifner": {Design: DesignDPML, Leaders: 1, Alg: mpi.AlgRabenseifner},
		"dpml-pipe-2x8":       DPMLPipelined(2, 8),
		"sharp-node":          {Design: DesignSharpNode},
		"sharp-socket":        {Design: DesignSharpSocket},
		"dualroot":            DualRoot(0),
		"dualroot-s3":         DualRoot(3),
		"genall":              GenAll(0),
		"genall-g4":           GenAll(4),
		"pap-sorted":          PAPSorted(),
		"pap-ring":            PAPRing(),
		"mvapich2":            {Design: DesignMVAPICH2},
		"intelmpi":            {Design: DesignIntelMPI},
		"proposed":            {Design: DesignProposed},
		"pap-aware":           {Design: DesignPAPAware},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
		if got, err := ParseDesign(want); err != nil || got != s {
			t.Errorf("ParseDesign(%q) = %+v, %v; want %+v", want, got, err, s)
		}
	}
	for _, name := range []string{"dpml-pipe-2x8:reduce-bcast", "dpml-pipe-4x1", "proposed:ring"} {
		if s, err := ParseDesign(name); err == nil {
			t.Errorf("ParseDesign(%q) = %+v, want an error", name, s)
		}
	}
}

// isSelector reports whether s names a selector design.
func isSelector(s Spec) bool {
	switch s.Design {
	case DesignMVAPICH2, DesignIntelMPI, DesignProposed, DesignPAPAware:
		return true
	}
	return false
}

// TestResolvePicksConcreteSpecs pins the invariant Validate relies on
// when it accepts a selector: every spec a selector picks is concrete,
// runs on the engine's job, and prints a name that ParseDesign maps back
// to it, so a trace label can be rerun as a -design.
func TestResolvePicksConcreteSpecs(t *testing.T) {
	var engines []*Engine
	// ppn 1 and 2 steer the proposed selector onto SHArP node-leader on
	// cluster A, ppn 28 onto socket-leader and, at 4MB, pipelining.
	for _, name := range []string{"A", "B", "C", "D"} {
		for _, ppn := range []int{1, 2, 28} {
			engines = append(engines, buildEngine(t, topology.ByName(name), 4, ppn))
		}
	}
	// A straggler plan steers pap-aware onto the arrival-aware designs.
	job, err := topology.NewJob(topology.ClusterA(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, NewEngine(mpi.NewWorld(job, mpi.Config{Faults: papPlan(t, 1)})))
	selectors := append(Libraries(), Spec{Design: DesignPAPAware})
	for _, e := range engines {
		for _, sel := range selectors {
			for bytes := 4; bytes <= 4<<20; bytes *= 2 {
				s := e.Resolve(sel, bytes)
				where := fmt.Sprintf("%s ppn=%d %s %dB: picked %+v", e.W.Job.Cluster.Name, e.W.Job.PPN, sel, bytes, s)
				if isSelector(s) {
					t.Errorf("%s, a selector", where)
				}
				if err := e.Validate(s); err != nil {
					t.Errorf("%s, which fails Validate: %v", where, err)
				}
				if got, err := ParseDesign(s.String()); err != nil || got != s {
					t.Errorf("%s, which prints %q and parses to %+v (%v)", where, s, got, err)
				}
			}
		}
	}
}

// TestSelectorTracesPickedSpec checks that a selector allreduce is traced
// under the name of the spec it ran, not the selector's.
func TestSelectorTracesPickedSpec(t *testing.T) {
	for count, want := range map[int]string{64: "sharp-socket", 1 << 17: "dpml-pipe-4x4"} {
		rec := runTraced(t, Spec{Design: DesignProposed}, 2, 4, count, 1)
		colls := 0
		for _, ev := range rec.Events() {
			if ev.Kind != trace.KindCollective {
				continue
			}
			colls++
			if ev.Label != want {
				t.Errorf("%d float64s: collective labelled %q, want %q", count, ev.Label, want)
			}
		}
		if colls != 8 {
			t.Errorf("%d float64s: %d collective events, want one per rank (8)", count, colls)
		}
	}
}

func TestProposedSpecShape(t *testing.T) {
	proposed := Spec{Design: DesignProposed}
	eA := buildEngine(t, topology.ClusterA(), 8, 28)
	if s := eA.Resolve(proposed, 256); s.Design != DesignSharpSocket {
		t.Errorf("cluster A 256B: %v, want SHArP socket-leader", s)
	}
	if s := eA.Resolve(proposed, 512<<10); s.Design != DesignDPML {
		t.Errorf("cluster A 512KB: %v, want DPML", s)
	}
	eC := buildEngine(t, topology.ClusterC(), 8, 28)
	if s := eC.Resolve(proposed, 256); s.Design == DesignSharpSocket || s.Design == DesignSharpNode {
		t.Errorf("cluster C cannot use SHArP, got %v", s)
	}
	if s := eC.Resolve(proposed, 8<<20); s.Design != DesignDPML || s.Chunks < 2 {
		t.Errorf("cluster C 8MB: %v, want pipelined", s)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Duration {
		return latencyOf(t, topology.ClusterC(), 4, 8, DPMLPipelined(4, 4), 1<<20, 2)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestAllreduceBufferReusableOnReturn pins Allreduce as a blocking
// MPI_Allreduce for every design: once it returns, the caller may write
// its buffer. The last local rank of each node arrives late, and every
// rank writes its next input as soon as Allreduce returns, so a rank
// that a peer still reads from (a deposit, a send buffer) would corrupt
// the peer's result. Payloads span eager and rendezvous messages, and
// the sharded kernel lets nodes run apart within a window.
func TestAllreduceBufferReusableOnReturn(t *testing.T) {
	const nodes, ppn, iters = 2, 4, 4
	var specs []Spec
	for _, alg := range mpi.FlatAlgorithms() {
		specs = append(specs, Flat(alg))
	}
	for _, name := range []string{
		"host-based", "dpml-3", "dpml-pipe-2x3", "sharp-node", "sharp-socket",
		"dualroot-s3", "genall-g3", "pap-sorted", "pap-ring",
	} {
		s, err := ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	specs = append(append(specs, Libraries()...), Spec{Design: DesignPAPAware})
	// Integer inputs keep every sum exact in any fold order.
	input := func(it, rank, i int) float64 { return float64(1000*it + rank + 1 + i%7) }
	for _, s := range specs {
		for _, n := range []int{7, 64, 5000} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/n%d/shards%d", s, n, shards), func(t *testing.T) {
					job, err := topology.NewJob(topology.ClusterA(), nodes, ppn)
					if err != nil {
						t.Fatal(err)
					}
					e := NewEngine(mpi.NewWorld(job, mpi.Config{Shards: shards}))
					p := job.NumProcs()
					err = e.W.Run(func(r *mpi.Rank) error {
						v := mpi.NewVector(mpi.Float64, n)
						got := make([]float64, n)
						fill := func(it int) {
							for i := range n {
								v.Set(i, input(it, r.Rank(), i))
							}
						}
						fill(0)
						for it := 0; it < iters; it++ {
							if r.Place().LocalRank == ppn-1 {
								r.Compute(1 << 20)
							}
							if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
								return err
							}
							copy(got, v.Float64s())
							fill(it + 1)
							// A failed check is recorded, not returned: a
							// rank that leaves early deadlocks the others.
							for i, x := range got {
								if want := float64(1000*it*p + p*(p+1)/2 + p*(i%7)); x != want {
									t.Errorf("iteration %d rank %d elem %d: got %v want %v", it, r.Rank(), i, x, want)
									break
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
