package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// splitmix64 is the test's deterministic PRNG step: all randomness in the
// scenario below derives from fixed seeds through this function, never
// from the host, so every run — at any shard count — sees the same
// workload.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shardScenarioDigest runs a randomized 16-node scenario on a coordinator
// with the given shard count and returns a digest of everything
// observable: each node's message log (arrival time, sender, payload tag,
// in arrival order), the NET LP's fire order, the final clock, and the
// event count. The workload deliberately mixes the behaviours sharding
// has to get right:
//
//   - same-instant events from different origins (coarse durations force
//     timestamp collisions, so the (at, prio) tie-break decides order);
//   - direct node→node messages at exactly the lookahead bound;
//   - messages hopping through the NET LP (the fabric's path), which in
//     sharded mode lives on its own kernel;
//   - a node event the NET LP minted that injects back into the NET LP
//     with zero delay at an instant where the NET LP has an event of its
//     own, so the two NET events' order is the kernel's phase order;
//   - reply chains, where a cross-shard arrival schedules further
//     cross-shard events from inside an event callback;
//   - sleeping procs interleaved with event delivery.
//
// x optionally installs a schedule-exploration config (see explore.go);
// the extra returns are the run's schedule digest and recorded tie
// pairs, both zero when x is nil.
func shardScenarioDigest(t *testing.T, shards int, x *Explore) ([sha256.Size]byte, uint64, []TiePair) {
	t.Helper()
	const (
		nodes     = 16
		rounds    = 12
		lookahead = Duration(100)
	)
	co := NewCoordinator(nodes, shards, lookahead)
	co.SetExplore(x)

	type rec struct {
		at  Time
		src int
		tag uint64
	}
	// logs[n] is appended only from node n's LP context, so no locking:
	// within a window each LP's events run on exactly one goroutine, and
	// windows are separated by barriers.
	logs := make([][]rec, nodes)
	// netLog is the NET LP's fire order, appended only from its context.
	var netLog []rec
	netFire := func(src int, tag uint64) func() {
		return func() { netLog = append(netLog, rec{co.NetKernel().Now(), src, tag}) }
	}

	// deliver records the arrival at dst and, while depth remains, sends
	// a reply straight back — an event callback scheduling further
	// cross-shard events, the pattern rendezvous and SHArP completion use.
	var deliver func(dst, src int, tag uint64, depth int) func()
	deliver = func(dst, src int, tag uint64, depth int) func() {
		return func() {
			k := co.KernelFor(dst)
			logs[dst] = append(logs[dst], rec{k.Now(), src, tag})
			if depth > 0 {
				d := lookahead + Duration(splitmix64(tag)%23)*10
				k.AfterOn(src, d, deliver(src, dst, splitmix64(tag+1), depth-1))
			}
		}
	}

	for n := 0; n < nodes; n++ {
		n := n
		k := co.KernelFor(n)
		k.SpawnOn(n, fmt.Sprintf("rank%d", n), func(p *Proc) {
			rng := uint64(n)
			next := func(mod uint64) uint64 {
				rng = splitmix64(rng)
				return rng % mod
			}
			for r := 0; r < rounds; r++ {
				// Coarse sleep granularity manufactures same-instant
				// collisions across nodes.
				p.Sleep(Duration(next(30)) * 10)
				dst := int(next(nodes - 1))
				if dst >= n {
					dst++ // any peer but self
				}
				tag := uint64(n)<<32 | uint64(r)
				switch next(3) {
				case 0:
					// Direct wire message at the minimum legal distance:
					// exactly the lookahead bound, the tightest event a
					// shard may aim at a neighbour.
					k.AfterOn(dst, lookahead, deliver(dst, n, tag, 2))
				case 1:
					// Longer direct message with a reply chain.
					d := lookahead + Duration(next(23))*10
					k.AfterOn(dst, d, deliver(dst, n, tag, 1))
				default:
					// Through the NET LP, like fabric transfers: the hop
					// into the net is immediate (exempt from lookahead);
					// the hop out is a wire delay >= lookahead.
					k.AfterNet(0, func() {
						netFire(n, tag)()
						net := co.NetKernel()
						d := lookahead + Duration(splitmix64(tag+2)%23)*10
						net.After(d, netFire(nodes, tag))
						net.AfterOn(dst, d, func() {
							deliver(dst, n, tag, 2)()
							if splitmix64(tag+3)%2 == 0 {
								co.KernelFor(dst).AfterNet(0, netFire(dst, tag))
							}
						})
					})
				}
			}
		})
	}
	if err := co.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}

	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for n := 0; n < nodes; n++ {
		u64(uint64(len(logs[n])))
		for _, r := range logs[n] {
			u64(uint64(r.at))
			u64(uint64(r.src))
			u64(r.tag)
		}
	}
	u64(uint64(len(netLog)))
	for _, r := range netLog {
		u64(uint64(r.at))
		u64(uint64(r.src))
		u64(r.tag)
	}
	u64(uint64(co.Now()))
	u64(co.Stats().Events)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, co.ScheduleDigest(), co.TiePairs()
}

// TestShardCountInvariance is the kernel-level determinism property: the
// randomized scenario above must digest identically for every shard
// count, including counts that do not divide the node count and counts
// the coordinator clamps. This pins down the whole contract — globally
// consistent (at, prio) keys, conservative windows, outbox merge order
// irrelevance — with no MPI layer in between.
func TestShardCountInvariance(t *testing.T) {
	base, _, _ := shardScenarioDigest(t, 1, nil)
	for _, shards := range []int{2, 3, 4, 5, 8, 16, 64} {
		if got, _, _ := shardScenarioDigest(t, shards, nil); got != base {
			t.Errorf("shards=%d: digest %x differs from serial %x", shards, got, base)
		}
	}
}
