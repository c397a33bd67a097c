package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// Signal.WaitUntil, and a copy's startup event that starts the copy
// itself (MemChannel.ArmCopy), exist only to save proc switches, so they
// must be unobservable otherwise. The tests below run one randomized
// gather workload with each and with the code it replaces, a loop of
// Waits and Sleep followed by the action and a park, and require every
// observable to match.

// refWait is the loop WaitUntil replaces: run on every release, re-check,
// wait again.
func refWait(s *Signal, p *Proc, c Cond) {
	for !c.Ready() {
		s.Wait(p, c.String())
	}
}

// refSleepThen is the sequence a copy's startup event replaces: sleep,
// act on the proc's own goroutine, park until the action's completion
// wakes it.
func refSleepThen(p *Proc, d Duration, then func(), why string) {
	p.Sleep(d)
	then()
	p.arm(why)
	p.Park()
}

// gatherNode is one node's shared state. A single signal carries every
// wait on the node, each with its own condition, so a release often
// frees procs whose conditions are still false.
type gatherNode struct {
	sig     Signal
	filled  []int  // per round: contributions landed
	done    []bool // per round: leader published
	log     []uint64
	actions int // startup actions run by their wakeup event
}

type filledCond struct {
	n           *gatherNode
	round, want int
}

func (c filledCond) Ready() bool    { return c.n.filled[c.round] >= c.want }
func (c filledCond) String() string { return fmt.Sprintf("gather round %d", c.round) }

type doneCond struct {
	n     *gatherNode
	round int
}

func (c doneCond) Ready() bool    { return c.n.done[c.round] }
func (c doneCond) String() string { return fmt.Sprintf("result round %d", c.round) }

// exactRun is everything a run of the gather scenario lets one observe.
type exactRun struct {
	digest   [sha256.Size]byte // per-node resume logs, finish times, clock, event count
	schedule uint64            // fired-key digest (exploring runs only)
	stats    KernelStats
	rounds   uint64
	actions  int // startup actions run by their wakeup event
}

// gatherScenario runs a randomized multi-node gather. On each node a
// leader waits for one contribution from each of its contributors plus
// one that arrives from the previous node as a cross-LP event, then
// publishes; each contributor "copies" its part (a sleep followed by a
// completion it starts), contributes, and waits for the result. Delays
// are coarse, so many events and releases share an instant, and about
// one contribution in eight straggles. refW and refS swap WaitUntil and
// the startup event for the code they replace.
func gatherScenario(t *testing.T, shards int, x *Explore, refW, refS bool) exactRun {
	t.Helper()
	const (
		nodes     = 4
		group     = 6 // leader plus five contributors per node
		rounds    = 10
		lookahead = Duration(100)
	)
	co := NewCoordinator(nodes, shards, lookahead)
	co.SetExplore(x)
	var run exactRun
	wait := (*Signal).WaitUntil
	if refW {
		wait = refWait
	}
	sleepThen := func(nd *gatherNode, p *Proc, d Duration, then func(), why string) {
		if refS {
			refSleepThen(p, d, then, why)
			return
		}
		p.k.After(d, func() {
			if p.state != stateRunning {
				nd.actions++
			}
			if p.k.curLP != p.lp {
				t.Errorf("startup action ran as LP %d, want the proc's LP %d", p.k.curLP, p.lp)
			}
			then()
		})
		p.ArmWake(why)
		p.Park()
	}

	ns := make([]*gatherNode, nodes)
	for n := range ns {
		ns[n] = &gatherNode{filled: make([]int, rounds), done: make([]bool, rounds)}
	}
	finish := make([]Time, nodes*group)
	for n := 0; n < nodes; n++ {
		nd := ns[n]
		for i := 0; i < group; i++ {
			g := n*group + i
			rng := splitmix64(uint64(g) + 1)
			next := func(mod uint64) uint64 {
				rng = splitmix64(rng)
				return rng % mod
			}
			note := func(p *Proc, what uint64) {
				nd.log = append(nd.log, uint64(p.Now()), uint64(g), what)
			}
			copyPart := func(p *Proc, d Duration) {
				drain := Duration(next(4)) * 10
				sleepThen(nd, p, d, func() { p.k.After(drain, p.Wake()) }, "copy")
			}
			co.KernelFor(n).SpawnOn(n, fmt.Sprintf("n%d.%d", n, i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					if i == 0 {
						wait(&nd.sig, p, filledCond{nd, r, group})
						note(p, uint64(r))
						copyPart(p, Duration(next(3))*10)
						nd.done[r] = true
						nd.sig.FireAll()
						continue
					}
					d := Duration(next(6)) * 10
					if next(8) == 0 {
						d += 700 // straggler
					}
					copyPart(p, d)
					nd.filled[r]++
					nd.sig.FireAll()
					if i == 1 {
						dst := (n + 1) % nodes
						r := r
						p.k.AfterOn(dst, lookahead+Duration(next(5))*10, func() {
							ns[dst].filled[r]++
							ns[dst].sig.FireAll()
						})
					}
					wait(&nd.sig, p, doneCond{nd, r})
					note(p, 1<<32|uint64(r))
				}
				finish[g] = p.Now()
			})
		}
	}
	if err := co.Run(); err != nil {
		t.Fatalf("shards=%d refW=%v refS=%v: %v", shards, refW, refS, err)
	}

	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, nd := range ns {
		u64(uint64(len(nd.log)))
		for _, v := range nd.log {
			u64(v)
		}
		run.actions += nd.actions
	}
	for _, at := range finish {
		u64(uint64(at))
	}
	u64(uint64(co.Now()))
	u64(co.Stats().Events)
	copy(run.digest[:], h.Sum(nil))
	run.schedule = co.ScheduleDigest()
	run.stats = co.Stats()
	run.rounds = co.Rounds()
	return run
}

// TestWaitUntilAndSleepThenMatchReference checks, at shards 1, 2 and 4,
// canonically and under exploration (salt 0 digests the canonical order;
// a nonzero salt perturbs every same-instant tiebreak), that both
// primitives leave the fired-key digest, each node's resume order,
// every proc's finish time and the event count exactly as the replaced
// code does, while taking fewer proc switches.
func TestWaitUntilAndSleepThenMatchReference(t *testing.T) {
	modes := []struct {
		name string
		x    func() *Explore
	}{
		{"canonical", func() *Explore { return nil }},
		{"explore-salt0", func() *Explore { return &Explore{} }},
		{"explore-seeded", func() *Explore { return &Explore{Salt: 0x5eed} }},
	}
	var canon [sha256.Size]byte
	for _, m := range modes {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", m.name, shards), func(t *testing.T) {
				ref := gatherScenario(t, shards, m.x(), true, true)
				for _, v := range []struct{ refW, refS bool }{{false, true}, {true, false}, {false, false}} {
					got := gatherScenario(t, shards, m.x(), v.refW, v.refS)
					if got.digest != ref.digest || got.schedule != ref.schedule {
						t.Errorf("WaitUntil=%v SleepThen=%v: digest %x schedule %x, reference %x schedule %x",
							!v.refW, !v.refS, got.digest[:8], got.schedule, ref.digest[:8], ref.schedule)
					}
				}
				got := gatherScenario(t, shards, m.x(), false, false)
				if got.stats.ContextSwitch >= ref.stats.ContextSwitch {
					t.Errorf("switches = %d, want fewer than the reference's %d", got.stats.ContextSwitch, ref.stats.ContextSwitch)
				}
				if got.actions == 0 {
					t.Error("no startup action ran from its wakeup event")
				}
				if m.x() == nil {
					// A canonical schedule is the same at every shard count.
					if shards == 1 {
						canon = got.digest
					} else if got.digest != canon {
						t.Errorf("digest %x differs from shards=1 %x", got.digest[:8], canon[:8])
					}
				}
				t.Logf("switches %d -> %d; startup actions %d", ref.stats.ContextSwitch, got.stats.ContextSwitch, got.actions)
			})
		}
	}
}

// TestOneKernelCounters pins the counters the benchmark harness reads
// from a one-kernel run: no window barriers, and the gather scenario's
// events, proc switches and heap peak, with and without the primitives
// that save switches.
func TestOneKernelCounters(t *testing.T) {
	for _, c := range []struct {
		refW, refS bool
		want       KernelStats
	}{
		{true, true, KernelStats{Events: 520, ContextSwitch: 1391, HeapHighWater: 20}},
		{false, false, KernelStats{Events: 520, ContextSwitch: 473, HeapHighWater: 20}},
	} {
		got := gatherScenario(t, 1, nil, c.refW, c.refS)
		if got.rounds != 0 || got.stats != c.want {
			t.Errorf("refW=%v refS=%v: rounds %d stats %+v, want 0 and %+v", c.refW, c.refS, got.rounds, got.stats, c.want)
		}
	}
}
