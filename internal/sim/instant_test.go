package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// atOnInHeap is the reference twin of Kernel.AtOn for an LP k owns: it
// mints the key AtOn would and pushes the event into k's slot heap,
// where an entry that is no set's slot stands for itself, bypassing the
// instant queue.
func atOnInHeap(k *Kernel, lp int32, t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	origin := k.curLP
	if !k.started {
		origin = lp
	}
	k.events.push(k.newEvent(t, k.nextPrio(origin), lp, fn))
}

// instantProgram runs a random program of plain events on 4 node LPs
// and the network LP: zero-delay bursts at the current instant, events
// at later instants, some spread over dozens of instants, sleeps,
// cross-LP AfterOn and AfterNet, and events AtOn schedules before the
// run, interleaved with each LP's event set, whose events are added and
// re-keyed at random. LPs 0 and 1 run procs;
// LPs 2 and 3 start from pre-run events. With reference, every plain
// event a kernel schedules for an LP it owns goes in its slot heap
// (atInHeap, atOnInHeap) instead of its instant queue, with the key the
// kernel API would mint; an event routed to another kernel still lands
// in that kernel's instant queue, so at 1 shard the reference is one
// (at, prio) heap. All randomness is drawn from per-LP generators
// advanced only by that LP's code, so both runs are the same program.
func instantProgram(t *testing.T, seed uint64, shards int, x *Explore, reference bool) setProgram {
	t.Helper()
	const (
		nodes     = 4
		lookahead = Duration(40)
		steps     = 60
	)
	co := NewCoordinator(nodes, shards, lookahead)
	co.SetExplore(x)

	type lpState struct {
		k       *Kernel
		rng     uint64
		set     *EventSet
		pending []*Event
		budget  int
	}
	lps := make([]*lpState, nodes+1)
	for lp := range lps {
		k := co.NetKernel()
		if lp < nodes {
			k = co.KernelFor(lp)
		}
		lps[lp] = &lpState{k: k, rng: seed*37 + uint64(lp), set: k.NewEventSet(), budget: 300}
	}
	logs := make([][]string, nodes+1)
	next := func(st *lpState, mod uint64) uint64 {
		st.rng = splitmix64(st.rng)
		return st.rng % mod
	}

	// act and event are LP code: each runs as the LP whose state it
	// takes, from a proc or from an event callback.
	var act func(lp int)
	event := func(lp int, tag string) func() {
		return func() {
			logs[lp] = append(logs[lp], fmt.Sprintf("%s@%d", tag, lps[lp].k.Now()))
			act(lp)
		}
	}
	at := func(lp int, t Time, fn func()) {
		if k := lps[lp].k; reference {
			atInHeap(k, t, fn)
		} else {
			k.At(t, fn)
		}
	}
	afterOn := func(lp, dst int, d Duration, fn func()) {
		k := lps[lp].k
		if reference && k.owns(int32(dst)) {
			atOnInHeap(k, int32(dst), k.Now().Add(d), fn)
			return
		}
		if dst == nodes {
			k.AfterNet(d, fn)
		} else {
			k.AfterOn(dst, d, fn)
		}
	}
	act = func(lp int) {
		st := lps[lp]
		if st.budget <= 0 {
			return
		}
		st.budget--
		now := st.k.Now()
		switch next(st, 10) {
		case 0, 1:
			// A burst at the current instant, as a fold's completion
			// readies a node's ranks.
			for i := int(next(st, 4)); i >= 0; i-- {
				at(lp, now, event(lp, "burst"))
			}
		case 2:
			at(lp, now.Add(Duration(next(st, 8))*5), event(lp, "later"))
		case 9:
			// Events spread over more instants than the queue's table of
			// open lists has slots, so some instants get a second list.
			for i := int(next(st, 4)); i >= 0; i-- {
				at(lp, now.Add(Duration(next(st, 48))*5), event(lp, "spread"))
			}
		case 3:
			var e *Event
			e = st.set.At(now.Add(Duration(next(st, 8))*5), func() {
				for i, q := range st.pending {
					if q == e {
						st.pending = append(st.pending[:i], st.pending[i+1:]...)
						break
					}
				}
				event(lp, "set")()
			})
			st.pending = append(st.pending, e)
		case 4, 5:
			// Re-key a burst of the set's events, as a water-fill does.
			for i := int(next(st, 3)); i >= 0 && len(st.pending) > 0; i-- {
				e := st.pending[next(st, uint64(len(st.pending)))]
				st.set.Reschedule(e, now.Add(Duration(next(st, 8))*5))
			}
		case 6:
			dst := (lp + 1 + int(next(st, nodes-1))) % nodes
			afterOn(lp, dst, lookahead+Duration(next(st, 4))*5, event(dst, "cross"))
		case 7:
			if lp != nodes {
				afterOn(lp, nodes, Duration(next(st, 3))*5, event(nodes, "net"))
			}
		case 8:
			afterOn(lp, lp, 0, event(lp, "self"))
		}
	}
	sleep := func(p *Proc, d Duration) {
		if !reference {
			p.Sleep(d)
			return
		}
		atInHeap(p.k, p.Now().Add(d), p.Wake())
		p.ArmWake("sleep")
		p.Park()
	}

	for lp := 2; lp < nodes; lp++ {
		for i := 0; i < 8; i++ {
			k := lps[lp].k
			if reference {
				atOnInHeap(k, int32(lp), Time(next(lps[lp], 6))*5, event(lp, "prerun"))
			} else {
				k.AtOn(lp, Time(next(lps[lp], 6))*5, event(lp, "prerun"))
			}
		}
	}
	for n := 0; n < 2; n++ {
		n := n
		st := lps[n]
		st.k.SpawnOn(n, fmt.Sprintf("p%d", n), func(p *Proc) {
			for i := 0; i < steps; i++ {
				sleep(p, Duration(next(st, 4))*5)
				act(n)
				act(n)
			}
		})
	}
	if err := co.Run(); err != nil {
		t.Fatalf("seed %d shards %d reference %v: %v", seed, shards, reference, err)
	}
	return setProgram{logs: logs, now: co.Now(), digest: co.ScheduleDigest(), ties: co.TiePairs(), stats: co.Stats()}
}

// TestInstantQueueMatchesHeap: the instant queue pops in exactly the
// (at, prio) order of one heap. Random programs run with their plain
// events in the kernels' instant queues and in a reference heap, at 1
// and 2 shards, canonically and under two exploration salts; every LP's
// fire order, the clock, the schedule digest, the tie pairs, Events and
// HeapHighWater must match. Events routed between kernels reach the
// reference heap only at 1 shard, and the kernel's order is the same at
// every shard count, so each 2-shard run must also fire what the
// 1-shard reference fires.
func TestInstantQueueMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, x := range []*Explore{nil, {Salt: 5}, {Salt: 13}} {
			var serial setProgram
			for _, shards := range []int{1, 2} {
				name := fmt.Sprintf("seed%d/shards%d", seed, shards)
				if x != nil {
					name += fmt.Sprintf("/salt%d", x.Salt)
				}
				ref := instantProgram(t, seed, shards, x, true)
				got := instantProgram(t, seed, shards, x, false)
				if shards == 1 {
					serial = ref
				}
				for _, want := range []setProgram{ref, serial} {
					if !reflect.DeepEqual(want.logs, got.logs) {
						t.Errorf("%s: fire order differs:\nheap  %v\nqueue %v", name, want.logs, got.logs)
					}
					if want.now != got.now || want.digest != got.digest {
						t.Errorf("%s: clock/digest %v/%x, want %v/%x", name, got.now, got.digest, want.now, want.digest)
					}
					if !reflect.DeepEqual(want.ties, got.ties) {
						t.Errorf("%s: %d tie pairs, want %d", name, len(got.ties), len(want.ties))
					}
					if want.stats.Events != got.stats.Events {
						t.Errorf("%s: %d events, want %d", name, got.stats.Events, want.stats.Events)
					}
				}
				if ref.stats.HeapHighWater != got.stats.HeapHighWater {
					t.Errorf("%s: high water %d, want %d", name, got.stats.HeapHighWater, ref.stats.HeapHighWater)
				}
				if x != nil && len(got.ties) == 0 {
					t.Errorf("%s: no tie pairs: the program exercises no same-instant order", name)
				}
			}
		}
	}
}
