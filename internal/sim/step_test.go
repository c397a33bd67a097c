package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// A step machine (Proc.RunSteps) must be unobservable except in the
// switch count. The property test below generates random proc programs
// of sleeps, hops (a wakeup event that starts a completion) and signal
// waits, with posts and cross-LP events between them, and runs each
// program blocking, as steps, and with half the procs stepping; every
// observable must match.

type stepOpKind uint8

const (
	opSleep stepOpKind = iota // Sleep(d)
	opHop                     // an event d from now starts a completion drain later
	opPost                    // count[round]++ and FireAll
	opCross                   // the same on the next node, as a cross-LP event
	opWait                    // WaitUntil count[round] reaches want
)

type stepOp struct {
	kind   stepOpKind
	d      Duration
	drain  Duration
	round  int
	want   int
	noteID uint64
}

type stepNode struct {
	sig   Signal
	count []int
	log   []uint64
}

type countCond struct {
	n           *stepNode
	round, want int
}

func (c countCond) Ready() bool    { return c.n.count[c.round] >= c.want }
func (c countCond) String() string { return fmt.Sprintf("round %d", c.round) }

// stepProg is one proc's program, cut into segments: a stepping proc
// runs each segment as one step machine.
type stepProg struct {
	p    *Proc
	g    int
	nd   *stepNode
	ns   []*stepNode
	node int
	segs [][]stepOp

	// The machine: segment seg, op i, and whether op i's wait is armed.
	seg, i int
	armed  bool
	run    func() bool
}

func (sp *stepProg) note(id uint64) {
	sp.nd.log = append(sp.nd.log, uint64(sp.p.Now()), uint64(sp.g), id)
}

// act runs the ops that do not wait.
func (sp *stepProg) act(o stepOp) {
	switch o.kind {
	case opPost:
		sp.nd.count[o.round]++
		sp.nd.sig.FireAll()
	case opCross:
		dst := sp.ns[(sp.node+1)%len(sp.ns)]
		r := o.round
		sp.p.k.AfterOn((sp.node+1)%len(sp.ns), o.d, func() {
			dst.count[r]++
			dst.sig.FireAll()
		})
	}
}

// armHop arms a hop as MemChannel.ArmCopy arms a copy: an event at the
// end of d starts the completion that wakes the proc.
func (sp *stepProg) armHop(o stepOp) {
	sp.p.k.After(o.d, func() { sp.p.k.After(o.drain, sp.p.Wake()) })
	sp.p.ArmWake("hop")
}

// blocking runs segment seg with the blocking primitives.
func (sp *stepProg) blocking(seg []stepOp) {
	for _, o := range seg {
		switch o.kind {
		case opSleep:
			sp.p.Sleep(o.d)
		case opHop:
			sp.armHop(o)
			sp.p.Park()
		case opWait:
			sp.nd.sig.WaitUntil(sp.p, countCond{sp.nd, o.round, o.want})
		default:
			sp.act(o)
			continue
		}
		sp.note(o.noteID)
	}
}

// step runs the current segment with arm forms up to its next wait.
func (sp *stepProg) step() bool {
	seg := sp.segs[sp.seg]
	for ; sp.i < len(seg); sp.i++ {
		o := seg[sp.i]
		if !sp.armed {
			switch o.kind {
			case opSleep:
				sp.p.ArmSleep(o.d)
				sp.armed = true
			case opHop:
				sp.armHop(o)
				sp.armed = true
			case opWait:
				sp.armed = !sp.nd.sig.ArmWaitUntil(sp.p, countCond{sp.nd, o.round, o.want})
			default:
				sp.act(o)
				continue
			}
			if sp.armed {
				return false
			}
		}
		sp.armed = false
		sp.note(o.noteID)
	}
	return true
}

// stepObs is everything a run of the program scenario lets one observe.
type stepObs struct {
	digest   [sha256.Size]byte // per-node logs, finish times, clock, events
	schedule uint64
	ties     []TiePair
	switches uint64
}

// stepScenario runs the same random programs with procs stepping per
// mode: 0 none, 1 all, 2 every other proc.
func stepScenario(t *testing.T, seed uint64, shards int, x *Explore, mode int) stepObs {
	t.Helper()
	const (
		nodes     = 4
		group     = 5
		rounds    = 8
		lookahead = Duration(100)
	)
	co := NewCoordinator(nodes, shards, lookahead)
	co.SetExplore(x)
	ns := make([]*stepNode, nodes)
	for n := range ns {
		ns[n] = &stepNode{count: make([]int, rounds)}
	}
	finish := make([]Time, nodes*group)
	for n := 0; n < nodes; n++ {
		for i := 0; i < group; i++ {
			g := n*group + i
			rng := splitmix64(seed ^ uint64(g+1)*0x9e3779b97f4a7c15)
			next := func(mod uint64) uint64 {
				rng = splitmix64(rng)
				return rng % mod
			}
			sp := &stepProg{g: g, nd: ns[n], ns: ns, node: n}
			sp.run = sp.step
			var seg []stepOp
			id := uint64(0)
			for r := 0; r < rounds; r++ {
				for h := next(4); h > 0; h-- {
					id++
					d := Duration(next(5)) * 10
					if next(2) == 0 {
						seg = append(seg, stepOp{kind: opSleep, d: d, noteID: id})
					} else {
						seg = append(seg, stepOp{kind: opHop, d: d, drain: Duration(next(4)) * 10, noteID: id})
					}
					if i == group-1 && next(3) == 0 {
						// A wait that is often already satisfied, or
						// released early by a post that does not
						// satisfy it. Only one proc per node waits
						// before its own post, so the others' posts
						// always satisfy it.
						id++
						seg = append(seg, stepOp{kind: opWait, round: r, want: int(next(group)), noteID: id})
					}
				}
				seg = append(seg, stepOp{kind: opPost, round: r})
				if i == 0 {
					seg = append(seg, stepOp{kind: opCross, round: r, d: lookahead + Duration(next(5))*10})
				}
				id++
				seg = append(seg, stepOp{kind: opWait, round: r, want: group + 1, noteID: id})
				if next(2) == 0 || r == rounds-1 {
					sp.segs = append(sp.segs, seg)
					seg = nil
				}
			}
			stepping := mode == 1 || (mode == 2 && g%2 == 0)
			sp.p = co.KernelFor(n).SpawnOn(n, fmt.Sprintf("n%d.%d", n, i), func(p *Proc) {
				for s, seg := range sp.segs {
					if stepping {
						sp.seg, sp.i = s, 0
						p.RunSteps(sp.run)
					} else {
						sp.blocking(seg)
					}
				}
				finish[g] = p.Now()
			})
		}
	}
	if err := co.Run(); err != nil {
		t.Fatalf("seed %d shards %d mode %d: %v", seed, shards, mode, err)
	}
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, nd := range ns {
		u64(uint64(len(nd.log)))
		for _, v := range nd.log {
			u64(v)
		}
	}
	for _, at := range finish {
		u64(uint64(at))
	}
	u64(uint64(co.Now()))
	u64(co.Stats().Events)
	var obs stepObs
	copy(obs.digest[:], h.Sum(nil))
	obs.schedule = co.ScheduleDigest()
	obs.ties = co.TiePairs()
	obs.switches = co.Stats().ContextSwitch
	return obs
}

// TestStepsMatchBlocking is the property: for random programs, at one
// and two shards, canonically and under two exploration salts, running
// procs as step machines leaves the clock, every log, the schedule
// digest and the tie pairs exactly as blocking calls do, with fewer
// proc switches.
func TestStepsMatchBlocking(t *testing.T) {
	modes := []struct {
		name string
		x    func() *Explore
	}{
		{"canonical", func() *Explore { return nil }},
		{"salt1", func() *Explore { return &Explore{Salt: 1} }},
		{"salt5eed", func() *Explore { return &Explore{Salt: 0x5eed} }},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, m := range modes {
			for _, shards := range []int{1, 2} {
				ref := stepScenario(t, seed, shards, m.x(), 0)
				for _, mode := range []int{1, 2} {
					got := stepScenario(t, seed, shards, m.x(), mode)
					where := fmt.Sprintf("seed %d %s shards %d stepping mode %d", seed, m.name, shards, mode)
					if got.digest != ref.digest || got.schedule != ref.schedule {
						t.Errorf("%s: digest %x schedule %#x, blocking %x schedule %#x",
							where, got.digest[:8], got.schedule, ref.digest[:8], ref.schedule)
					}
					if fmt.Sprint(got.ties) != fmt.Sprint(ref.ties) {
						t.Errorf("%s: %d tie pairs differ from blocking's %d", where, len(got.ties), len(ref.ties))
					}
					if mode == 1 && got.switches >= ref.switches {
						t.Errorf("%s: %d switches, want fewer than blocking's %d", where, got.switches, ref.switches)
					}
				}
			}
		}
	}
}

// TestStepPanicNamesSteppingProc: a step runs on whatever stack is
// scheduling — another proc's, or the driver loop's at a window start —
// and a panic in it must fail the run naming the stepping proc. So must
// a blocking call inside a step, which would park the wrong coroutine.
func TestStepPanicNamesSteppingProc(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		block  bool
	}{
		{"on another proc's stack", 1, false},
		{"on the driver's stack", 2, false},
		{"blocking call in a step", 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			co := NewCoordinator(2, c.shards, 100)
			wakerNode := 0
			if c.shards > 1 {
				wakerNode = 1
			}
			nd := &stepNode{count: make([]int, 1)}
			co.KernelFor(0).SpawnOn(0, "stepper", func(p *Proc) {
				armed := false
				p.RunSteps(func() bool {
					if !armed {
						armed = true
						return nd.sig.ArmWaitUntil(p, countCond{nd, 0, 1})
					}
					if c.block {
						nd.sig.Wait(p, "blocked")
					}
					panic("step exploded")
				})
			})
			k := co.KernelFor(wakerNode)
			k.SpawnOn(wakerNode, "waker", func(p *Proc) {
				k.AfterOn(0, 200, func() {
					nd.count[0]++
					nd.sig.FireAll()
				})
				p.Sleep(500)
			})
			var pe *PanicError
			if err := co.Run(); !errors.As(err, &pe) || pe.Proc != "stepper" {
				t.Fatalf("err = %v, want a PanicError naming stepper", err)
			}
			want := "step exploded"
			if c.block {
				want = `sim: blocking call inside a step of proc "stepper"`
			}
			if fmt.Sprint(pe.Value) != want {
				t.Errorf("panic value %q, want %q", pe.Value, want)
			}
		})
	}
}
