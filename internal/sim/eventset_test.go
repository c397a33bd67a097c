package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// atInHeap schedules fn in the kernel's own heap and returns its handle,
// the kernel-heap twin of EventSet.At.
func atInHeap(k *Kernel, t Time, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	e := k.newEvent(t, k.nextPrio(k.curLP), k.curLP, fn)
	k.events.push(e)
	return e
}

// rescheduleInHeap re-keys a kernel-heap event in place, minting its key
// exactly as EventSet.Reschedule does: the reference the sets are
// checked against.
func rescheduleInHeap(k *Kernel, e *Event, t Time) {
	if t < k.now {
		t = k.now
	}
	raw := k.nextPrio(k.curLP)
	e.raw = raw
	if k.explore != nil {
		e.born = k.fireSeq
	}
	k.events.update(e, t, k.permKey(t, raw, e.exec))
}

// setProgram is what one run of eventSetProgram observed.
type setProgram struct {
	logs   [][]string // per LP, in fire order
	now    Time
	digest uint64
	ties   []TiePair
	stats  KernelStats
}

// eventSetProgram runs a random program of event scheduling and
// re-keying on 4 node LPs and the network LP. Every LP keeps pending
// events in two channels and re-keys them at random, from procs and
// from event callbacks, between sleeps and cross-LP events. LPs 0 and 1
// run procs; LPs 2 and 3 have none and start from events their kernel
// schedules before the run, so at 2 shards the coordinator's first look
// at that kernel finds only freshly filled channels. With useSets each
// channel is an EventSet (one per LP and channel, so the network LP's
// sets live on the net kernel); without, every event sits in the
// kernel's heap and is re-keyed there. All randomness is drawn from
// per-LP generators advanced only by that LP's code, and keys are
// minted identically either way, so both runs are the same program.
func eventSetProgram(t *testing.T, seed uint64, shards int, x *Explore, useSets bool) setProgram {
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
		sets    [2]*EventSet
		pending [2][]*Event
		nextID  int
		budget  int
	}
	lps := make([]*lpState, nodes+1)
	for lp := range lps {
		k := co.NetKernel()
		if lp < nodes {
			k = co.KernelFor(lp)
		}
		st := &lpState{k: k, rng: seed*31 + uint64(lp), budget: 600}
		if useSets {
			st.sets = [2]*EventSet{k.NewEventSet(), k.NewEventSet()}
		}
		lps[lp] = st
	}
	logs := make([][]string, nodes+1)
	next := func(st *lpState, mod uint64) uint64 {
		st.rng = splitmix64(st.rng)
		return st.rng % mod
	}

	// schedule, rekey and act are LP code: each runs as the LP whose
	// state it takes, from a proc or from an event callback.
	var schedule func(lp, ch int, span uint64)
	var act func(lp int)
	move := func(lp, ch int, e *Event, at Time) {
		if useSets {
			lps[lp].sets[ch].Reschedule(e, at)
		} else {
			rescheduleInHeap(lps[lp].k, e, at)
		}
	}
	rekey := func(lp int) {
		st := lps[lp]
		ch := int(next(st, 2))
		if len(st.pending[ch]) == 0 {
			return
		}
		e := st.pending[ch][next(st, uint64(len(st.pending[ch])))]
		move(lp, ch, e, st.k.Now().Add(Duration(next(st, 12))*5))
	}
	act = func(lp int) {
		st := lps[lp]
		switch next(st, 8) {
		case 0, 1, 2:
			rekey(lp)
		case 3:
			// A burst: re-key most of one channel, as a water-fill does.
			for i := int(next(st, 6)); i >= 0; i-- {
				rekey(lp)
			}
		case 4, 5:
			if st.budget > 0 {
				schedule(lp, int(next(st, 2)), 12)
			}
		case 6:
			// A plain event beside the channels, tied to their instants.
			at := st.k.Now().Add(Duration(next(st, 12)) * 5)
			st.k.At(at, func() { logs[lp] = append(logs[lp], fmt.Sprintf("plain@%d", st.k.Now())) })
		case 7:
			dst := (lp + 1 + int(next(st, nodes-1))) % nodes
			st.k.AfterOn(dst, lookahead+Duration(next(st, 4))*5, func() { act(dst) })
		}
	}
	schedule = func(lp, ch int, span uint64) {
		st := lps[lp]
		st.budget--
		id := st.nextID
		st.nextID++
		var e *Event
		fire := func() {
			logs[lp] = append(logs[lp], fmt.Sprintf("%d.%d@%d", ch, id, st.k.Now()))
			p := st.pending[ch]
			for i, q := range p {
				if q == e {
					st.pending[ch] = append(p[:i], p[i+1:]...)
					break
				}
			}
			act(lp)
			act(lp)
		}
		at := st.k.Now().Add(Duration(next(st, span)) * 5)
		if useSets {
			e = st.sets[ch].At(at, fire)
		} else {
			e = atInHeap(st.k, at, fire)
		}
		st.pending[ch] = append(st.pending[ch], e)
	}

	// fill gives an LP's channel 0 a backlog spread far ahead, so its
	// set holds over 64 events and sifts its first re-keys eagerly, and
	// moves the last one to the current instant: before LPs 2 and 3 ever
	// run, their sets' earliest events are re-keyed ones.
	fill := func(lp int) {
		for i := 0; i < 100; i++ {
			schedule(lp, 0, 400)
		}
		for i := 0; i < 6; i++ {
			schedule(lp, 1, 12)
		}
		st := lps[lp]
		move(lp, 0, st.pending[0][len(st.pending[0])-1], st.k.Now())
	}
	fill(2)
	fill(3)
	for n := 0; n < 2; n++ {
		n := n
		st := lps[n]
		st.k.SpawnOn(n, fmt.Sprintf("p%d", n), func(p *Proc) {
			fill(n)
			for i := 0; i < steps; i++ {
				p.Sleep(Duration(next(st, 4)) * 5)
				act(n)
				switch next(st, 6) {
				case 0:
					dst := (n + 1 + int(next(st, nodes-1))) % nodes
					d := lookahead + Duration(next(st, 4))*5
					st.k.AfterOn(dst, d, func() { act(dst) })
				case 1:
					st.k.AfterNet(Duration(next(st, 3))*5, func() { act(nodes) })
				}
			}
		})
	}
	if err := co.Run(); err != nil {
		t.Fatalf("seed %d shards %d sets %v: %v", seed, shards, useSets, err)
	}
	return setProgram{logs: logs, now: co.Now(), digest: co.ScheduleDigest(), ties: co.TiePairs(), stats: co.Stats()}
}

// TestEventSetMatchesHeap: keeping events in sets changes nothing a run
// can observe. Random programs of At, Reschedule, sleeps and cross-LP
// events run once with their re-keyed events in event sets and once with
// every event in the kernel heap, at 1 and 2 shards, canonically and
// under two exploration salts; every LP's fire order, the clock, the
// schedule digest, the tie pairs, Events and HeapHighWater must match.
func TestEventSetMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, shards := range []int{1, 2} {
			for _, x := range []*Explore{nil, {Salt: 3}, {Salt: 11}} {
				name := fmt.Sprintf("seed%d/shards%d", seed, shards)
				if x != nil {
					name += fmt.Sprintf("/salt%d", x.Salt)
				}
				heap := eventSetProgram(t, seed, shards, x, false)
				sets := eventSetProgram(t, seed, shards, x, true)
				if !reflect.DeepEqual(heap.logs, sets.logs) {
					t.Errorf("%s: fire order differs:\nheap %v\nsets %v", name, heap.logs, sets.logs)
				}
				if heap.now != sets.now || heap.digest != sets.digest {
					t.Errorf("%s: clock/digest %v/%x with sets, want %v/%x", name, sets.now, sets.digest, heap.now, heap.digest)
				}
				if !reflect.DeepEqual(heap.ties, sets.ties) {
					t.Errorf("%s: %d tie pairs with sets, want %d", name, len(sets.ties), len(heap.ties))
				}
				if heap.stats.Events != sets.stats.Events || heap.stats.HeapHighWater != sets.stats.HeapHighWater {
					t.Errorf("%s: events/high water %d/%d with sets, want %d/%d", name,
						sets.stats.Events, sets.stats.HeapHighWater, heap.stats.Events, heap.stats.HeapHighWater)
				}
				if x != nil && len(heap.ties) == 0 {
					t.Errorf("%s: no tie pairs: the program exercises no same-instant order", name)
				}
			}
		}
	}
}

// TestEventSetRescheduledBeforeRun: a set event re-keyed earlier
// before the run must bound the other shard's first window. Node 1's
// kernel has no procs, and its only event moves from t=100 to t=10,
// where it messages node 0 for t=50; node 0 sleeps to t=120. Were the
// coordinator to see the set's stale t=100, node 0 would run its window
// to 140, past the message.
func TestEventSetRescheduledBeforeRun(t *testing.T) {
	const lookahead = Duration(40)
	co := NewCoordinator(2, 2, lookahead)
	var got []string
	k0, k1 := co.KernelFor(0), co.KernelFor(1)
	set := k1.NewEventSet()
	e := set.At(100, func() {
		k1.AfterOn(0, lookahead, func() { got = append(got, fmt.Sprintf("message@%d", k0.Now())) })
	})
	set.Reschedule(e, 10)
	k0.SpawnOn(0, "p", func(p *Proc) {
		p.Sleep(120)
		got = append(got, fmt.Sprintf("wake@%d", p.Now()))
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"message@50", "wake@120"}; !reflect.DeepEqual(got, want) {
		t.Errorf("node 0 saw %v, want %v", got, want)
	}
}

// TestEventSetReschedulePanics: re-keying nil, a fired event, or one
// pending in another set is a caller bug and fails loudly.
func TestEventSetReschedulePanics(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	a, b := k.NewEventSet(), k.NewEventSet()
	k.Spawn("p", func(p *Proc) {
		fired := a.At(1, func() {})
		other := b.At(5, func() {})
		a.At(5, func() {})
		p.Sleep(2)
		for i, e := range []*Event{nil, fired, other} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("case %d: Reschedule did not panic", i)
					}
				}()
				a.Reschedule(e, 3)
			}()
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}
