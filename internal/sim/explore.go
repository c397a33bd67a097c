package sim

// Schedule-space exploration.
//
// The kernel's event order is a strict total order over (at, prio) keys,
// where prio packs (origin LP, per-LP creation counter). Among events at
// the *same instant* the tiebreak component is an arbitrary — but fixed —
// convention; any injective remapping of the tiebreaks at one instant
// yields another legal schedule of the same simulation:
//
//   - Causality is preserved: an event's effects (events it creates,
//     procs it readies) always carry instants >= its own, and an event
//     created at its own instant cannot fire before the event that
//     created it (it does not exist in the heap until the cause has
//     fired), so a cause still precedes its consequences whatever the
//     same-instant permutation does. The permutation only reorders
//     events none of which is an ancestor of another.
//   - The lookahead bound is untouched: perm changes prio, never at, so
//     cross-LP events still land >= now+L and the window protocol's
//     safety argument is unchanged.
//   - Shard-count invariance is preserved for node LPs: perm is a pure
//     function of (at, raw key) applied identically by every kernel,
//     raw keys are already globally consistent across shard counts, and
//     a node LP's pending set evolves identically in serial and sharded
//     runs — its same-instant creations come only from its own
//     execution (the lookahead assertion forbids zero-delay cross-LP
//     events into a node), and remote arrivals are always pushed before
//     the window containing their instant opens. The network LP is the
//     exception: zero-delay cross-kernel injection into it is legal
//     (AfterNet), so which net events are pending at an instant depends
//     on how node and net execution interleave — serial interleaves by
//     key, sharded batches all node work of the instant before any net
//     work (the window protocol's phase structure). Canonical keys
//     tolerate the difference because a zero-delay consequence's key
//     always exceeds its cause's; an arbitrary permutation does not.
//     Exploration therefore *phase-normalizes* the explored order
//     itself: a net-LP event's heap key gets bit 63 set, making it sort
//     after every node-LP event of the same instant in every mode —
//     which is a legal causal order, since same-instant dependencies
//     only ever flow node->net (net callbacks cannot create node events
//     below the lookahead) — while keeping the canonical key within the
//     net range. Net events are exempt from tie recording (their
//     internal order is not perturbed); the explorer still perturbs
//     everything that executes on node LPs — wakeups, deliveries,
//     completions — which is where arrival-order races live.
//
// Explore turns that freedom into a search space: a splitmix64-salted
// bijection perturbs every same-instant tiebreak (seeded random
// schedules), and targeted TieSwap transpositions invert exactly one
// observed same-LP tie (systematic DPOR-lite schedules). Cross-LP
// same-instant events commute — LP state is disjoint and a callback may
// only touch its own LP's state — so only same-LP reorderings are
// behaviorally meaningful; the kernel records those as TiePairs for the
// systematic frontier, and folds a per-LP digest of the *raw* keys
// actually fired so behaviorally identical schedules hash equal at every
// (shards, GOMAXPROCS) combination.
//
// This is the only perturbation: MPI message matching stays FIFO per
// (communicator, source, tag) bucket. Two entries of one bucket at one
// instant are two messages from one sender or two receives posted by
// one rank, whose order MPI's non-overtaking rule fixes; arrivals from
// different senders are distinct events on the receiver's LP, which
// the tiebreak permutation already reorders.

// Explore configures schedule perturbation for one run. A nil *Explore
// means the canonical schedule; a non-nil one, even the zero value,
// also digests the schedule and records its same-LP ties (at most
// maxTies per LP) for the systematic frontier. Install it with
// Coordinator.SetExplore before any proc or event is created.
type Explore struct {
	// Salt seeds the tiebreak permutation: every same-instant tiebreak
	// is remapped through a splitmix64-style bijection mixed with the
	// instant and this salt. Salt 0 leaves the canonical order (the
	// explorer's baseline run).
	Salt uint64

	// Swaps inverts specific same-instant tiebreak pairs, composed left
	// to right as transpositions (so the map stays a bijection even if
	// swaps share a key). Applied before Salt. Used by the systematic
	// explorer to flip exactly one commutation point per schedule.
	Swaps []TieSwap
}

// maxTies caps the ties recorded per LP. A per-LP cap keeps the
// recorded set shard-count-invariant.
const maxTies = 64

// TieSwap names one same-instant tiebreak transposition: at instant At,
// the events whose raw keys are A and B trade places in the total order.
type TieSwap struct {
	At   Time
	A, B uint64
}

// TiePair is an observed commutation point: two events of the same LP
// fired back to back at the same instant. Inverting the pair (as a
// TieSwap) yields a distinct legal schedule; cross-LP pairs are not
// reported because disjoint LP state makes them commute.
type TiePair struct {
	At   Time
	LP   int
	A, B uint64
}

// swapKey indexes a transposition endpoint.
type swapKey struct {
	at  Time
	raw uint64
}

// exploreState is the compiled, kernel-shared form of an Explore config.
// It is built once before the run and never mutated afterwards, so shard
// kernels may consult it concurrently.
type exploreState struct {
	salt  uint64
	swaps map[swapKey]uint64
}

// compile builds the shared state, composing Swaps into a bijection.
func (x *Explore) compile() *exploreState {
	st := &exploreState{salt: x.Salt}
	if len(x.Swaps) > 0 {
		st.swaps = make(map[swapKey]uint64, 2*len(x.Swaps))
		get := func(at Time, r uint64) uint64 {
			if v, ok := st.swaps[swapKey{at, r}]; ok {
				return v
			}
			return r
		}
		for _, s := range x.Swaps {
			va, vb := get(s.At, s.A), get(s.At, s.B)
			st.swaps[swapKey{s.At, s.A}], st.swaps[swapKey{s.At, s.B}] = vb, va
		}
	}
	return st
}

// mix64 is the splitmix64 output mixer: a fixed bijection on uint64 used
// for the salted tiebreak permutation and the schedule digest.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perm maps a raw node-LP tiebreak to its perturbed heap key. For a
// fixed instant this is a bijection on [0, 2^63): transposition
// composition, then an XOR with an instant-derived constant pushed
// through the mix64 bijection, cycle-walked back into the 63-bit
// domain (iterating a bijection until it re-enters a closed subdomain
// is itself a bijection on that subdomain). Staying below 2^63 keeps
// perturbed node keys disjoint from the net LP's bit-63 range (see
// Kernel.permKey). Keys at different instants never compare on prio —
// (at, prio) order is lexicographic — so instant-dependence is
// harmless.
func (st *exploreState) perm(at Time, raw uint64) uint64 {
	if st.swaps != nil {
		if key, ok := st.swaps[swapKey{at, raw}]; ok {
			raw = key
		}
	}
	if st.salt == 0 {
		return raw
	}
	c := mix64(uint64(at) ^ st.salt)
	v := raw
	for {
		v = mix64(v ^ c)
		if v < 1<<63 {
			return v
		}
	}
}

// setExplore installs the compiled state on one kernel and sizes its
// per-LP digest and tie-recording arrays.
func (k *Kernel) setExplore(st *exploreState) {
	k.explore = st
	k.digest = make([]uint64, k.lpCount)
	k.lastAt = make([]Time, k.lpCount)
	k.lastRaw = make([]uint64, k.lpCount)
	k.lastSeq = make([]uint64, k.lpCount)
	k.ties = make([][]TiePair, k.lpCount)
}

// noteFire folds a fired event into its LP's schedule digest and
// collects same-LP same-instant adjacent pairs. Keys are
// folded in *raw* (pre-perturbation) form: two runs that fire the same
// per-LP event sequences digest equal whatever their salts were, so the
// digest counts behaviorally distinct schedules, not salt values. Raw
// keys are never zero (origin+1 occupies the high bits), so lastRaw==0
// doubles as "no event fired on this LP yet".
//
// A pair is recorded only when both events were pending together —
// born < lastSeq[i] means this event entered the heap before the
// previous one fired. An event created *during* the previous event's
// callback (or by a proc that callback readied) is causally ordered
// after it: inverting such a pair's keys cannot reorder them, because
// the second event is not in the heap when the first is popped, so
// recording it would both waste the systematic frontier's budget on
// no-op schedules and crowd genuine commutation points out of the
// per-LP maxTies cap. The predicate is shard-count-invariant: an LP's
// same-instant creations come only from its own execution (the
// lookahead bound forbids zero-delay cross-LP events into a node), so
// "pending before the previous fire" is a property of the causal order,
// not of the kernel interleaving.
func (k *Kernel) noteFire(at Time, raw, born uint64, exec int32) {
	k.fireSeq++
	i := exec - k.lpBase
	d := k.digest[i]
	d = mix64(d ^ uint64(at))
	d = mix64(d ^ raw)
	k.digest[i] = d
	if exec != k.netLP && k.lastRaw[i] != 0 && k.lastAt[i] == at && born < k.lastSeq[i] && len(k.ties[i]) < maxTies {
		k.ties[i] = append(k.ties[i], TiePair{At: at, LP: int(exec), A: k.lastRaw[i], B: raw})
	}
	k.lastAt[i], k.lastRaw[i], k.lastSeq[i] = at, raw, k.fireSeq
}

// SetExplore installs a schedule-perturbation config on every kernel of
// the simulation. A nil config is a no-op (canonical schedule, no
// digest). Must be called before Run and before any proc or event is
// created, so every key minted anywhere in the run goes through the
// same permutation.
func (c *Coordinator) SetExplore(x *Explore) {
	if c.started {
		panic("sim: SetExplore after Run")
	}
	if x == nil {
		return
	}
	// Raw keys must stay below bit 63 so the net LP's phase-normalized
	// range (bit 63 set) cannot collide with perturbed node keys. The
	// origin block starts at bit 44, leaving 63-44 = 19 bits of origin
	// headroom — this only excludes simulations with >= 2^19-2 nodes,
	// far past any explorable scale.
	if c.nodes+2 >= 1<<19 {
		panic("sim: SetExplore on a simulation too large for 63-bit event keys")
	}
	st := x.compile()
	for _, k := range c.kernels {
		if len(k.procs) > 0 || k.pending > 0 {
			panic("sim: SetExplore after procs or events were created")
		}
		k.setExplore(st)
	}
}

// ScheduleDigest returns a 64-bit digest of the schedule the run
// actually executed: each LP's fired (at, raw key) sequence folded in
// order, combined across LPs in LP-id order. It is invariant under
// shard count, net workers, and host parallelism, and — because it
// folds raw keys — equal for runs that fired identical per-LP sequences
// under different salts. Zero when exploration is off. Call after Run.
func (c *Coordinator) ScheduleDigest() uint64 {
	if c.kernels[0].explore == nil {
		return 0
	}
	h := uint64(0x9e3779b97f4a7c15)
	for lp := 0; lp <= c.nodes; lp++ {
		k := c.ownerOf(int32(lp))
		h = mix64(h ^ uint64(lp) ^ k.digest[int32(lp)-k.lpBase])
	}
	return h
}

// TiePairs returns the commutation points an explored run observed:
// same-LP same-instant adjacent fire pairs, in LP-id order then fire
// order, at most maxTies per LP. The set is shard-count-invariant
// because each LP's fire sequence is. Nil when exploration is off.
// Call after Run.
func (c *Coordinator) TiePairs() []TiePair {
	var out []TiePair
	for lp := 0; lp <= c.nodes; lp++ {
		k := c.ownerOf(int32(lp))
		if k.ties == nil {
			continue
		}
		out = append(out, k.ties[int32(lp)-k.lpBase]...)
	}
	return out
}

// ownerOf returns the kernel owning an LP (including the network LP).
func (c *Coordinator) ownerOf(lp int32) *Kernel {
	if lp == int32(c.nodes) {
		return c.netK
	}
	return c.kernels[c.shardOf[lp]]
}
