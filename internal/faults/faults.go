// Package faults defines deterministic, seeded fault plans that perturb a
// simulated job without touching the healthy-path results: per-rank
// straggler windows (compute and per-message CPU slowdown), link
// degradation and flapping (time-varying link capacity), per-NIC
// message-rate throttling, and SHArP offload outages.
//
// A Plan is pure data. The mpi layer installs it into a World (see
// mpi.Config.Faults): straggler windows are consulted on the perturbed
// rank's hot paths, while link, NIC, and SHArP events are scheduled as
// ordinary kernel events at their window boundaries. Plans are immutable
// once built, so one Plan may be shared by many concurrent worlds (the
// sweep pool does exactly that). A nil or empty Plan is the healthy
// fabric, bit-for-bit identical to a run with no fault layer at all.
//
// Plans are usually generated from a Spec: a compact description (fault
// classes, an intensity knob, a seed) that is instantiated for a concrete
// job shape. Identical (Spec, seed, shape) always yield identical Plans;
// different seeds draw different ranks, windows, and factors.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dpml/internal/sim"
)

// Straggler slows one rank down by Factor during [Start, End): its
// reduction compute and its per-message CPU overheads (sender and
// receiver side) take Factor times as long. This generalizes the
// per-message jitter knob: instead of uniform noise on every message, a
// chosen rank is coherently slow for a window of virtual time. End == 0
// means the window never closes. Overlapping windows take the largest
// factor.
type Straggler struct {
	Rank   int
	Start  sim.Time
	End    sim.Time // 0 = until the end of the run
	Factor float64  // >= 1: how many times slower the rank runs
}

// LinkFault degrades both directions of one node's NIC to Factor of the
// nominal capacity during [Start, End): in-flight flows are re-water-
// filled at the boundary, so a congested link slows every flow crossing
// it mid-transfer. Multiple disjoint windows on the same link model a
// flapping link. End == 0 means the degradation is permanent.
type LinkFault struct {
	Node   int
	Start  sim.Time
	End    sim.Time // 0 = until the end of the run
	Factor float64  // (0, 1]: remaining fraction of nominal capacity
}

// NICThrottle multiplies the injection gap (the inverse message rate) of
// one node's NIC by Factor during [Start, End), modelling a NIC whose
// doorbell path is degraded. End == 0 means permanent.
type NICThrottle struct {
	Node   int
	Start  sim.Time
	End    sim.Time // 0 = until the end of the run
	Factor float64  // >= 1: message-gap multiplier
}

// SharpOutage marks the fabric's SHArP offload unavailable during
// [Start, End): operations that would start inside the window fail with
// fabric.ErrSharpOffline and the core designs fall back to host-based
// reduction. Operations already in the switch tree complete (failure is
// detected at operation start, as a production library's completion
// timeout would). End == 0 means the offload never recovers.
type SharpOutage struct {
	Start sim.Time
	End   sim.Time // 0 = until the end of the run
}

// Plan is one deterministic set of fault events in virtual time.
type Plan struct {
	Stragglers []Straggler
	Links      []LinkFault
	NICs       []NICThrottle
	Sharp      []SharpOutage
}

// Empty reports whether the plan perturbs anything at all.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Stragglers) == 0 && len(p.Links) == 0 && len(p.NICs) == 0 && len(p.Sharp) == 0
}

// Shape describes the job a plan is validated against (and generated
// for): global rank count and nodes in use.
type Shape struct {
	Ranks int
	Nodes int
}

func window(start, end sim.Time) error {
	if start < 0 {
		return fmt.Errorf("negative start %v", start)
	}
	if end != 0 && end <= start {
		return fmt.Errorf("window [%v, %v) is empty", start, end)
	}
	return nil
}

// Validate checks every event against the job shape and returns the
// first problem found.
func (p *Plan) Validate(sh Shape) error {
	if p == nil {
		return nil
	}
	for i, s := range p.Stragglers {
		if s.Rank < 0 || s.Rank >= sh.Ranks {
			return fmt.Errorf("faults: straggler %d: rank %d out of range [0,%d)", i, s.Rank, sh.Ranks)
		}
		if s.Factor < 1 {
			return fmt.Errorf("faults: straggler %d: factor %g < 1", i, s.Factor)
		}
		if err := window(s.Start, s.End); err != nil {
			return fmt.Errorf("faults: straggler %d: %w", i, err)
		}
	}
	for i, l := range p.Links {
		if l.Node < 0 || l.Node >= sh.Nodes {
			return fmt.Errorf("faults: link fault %d: node %d out of range [0,%d)", i, l.Node, sh.Nodes)
		}
		if l.Factor <= 0 || l.Factor > 1 {
			return fmt.Errorf("faults: link fault %d: factor %g outside (0,1]", i, l.Factor)
		}
		if err := window(l.Start, l.End); err != nil {
			return fmt.Errorf("faults: link fault %d: %w", i, err)
		}
	}
	for i, n := range p.NICs {
		if n.Node < 0 || n.Node >= sh.Nodes {
			return fmt.Errorf("faults: nic throttle %d: node %d out of range [0,%d)", i, n.Node, sh.Nodes)
		}
		if n.Factor < 1 {
			return fmt.Errorf("faults: nic throttle %d: factor %g < 1", i, n.Factor)
		}
		if err := window(n.Start, n.End); err != nil {
			return fmt.Errorf("faults: nic throttle %d: %w", i, err)
		}
	}
	for i, o := range p.Sharp {
		if err := window(o.Start, o.End); err != nil {
			return fmt.Errorf("faults: sharp outage %d: %w", i, err)
		}
	}
	return nil
}

// Class names one fault category a Spec can generate.
type Class string

// Generated fault classes.
const (
	ClassStraggler Class = "straggler"
	ClassLink      Class = "link"
	ClassNIC       Class = "nic"
	ClassSharp     Class = "sharp"
)

// Classes lists every generatable class in canonical order.
func Classes() []Class {
	return []Class{ClassStraggler, ClassLink, ClassNIC, ClassSharp}
}

// DefaultIntensity is used when a spec string names a class without an
// explicit @intensity.
const DefaultIntensity = 0.5

// Spec compactly describes a family of plans: which fault classes to
// generate, how hard to push (Intensity in (0,1] scales both the number
// of faulted components and the severity of each fault), and the seed
// that makes the draw deterministic. Horizon > 0 confines fault windows
// to [0, Horizon) with flapping sub-windows; Horizon == 0 generates
// open-ended faults active from t=0, which perturb a run of any length.
type Spec struct {
	Classes   []Class
	Intensity float64
	Seed      uint64
	Horizon   sim.Duration
}

// ParseSpec parses a -faults style flag value: a comma-separated list of
// classes, each with an optional @intensity, e.g.
// "straggler", "straggler@0.25,link", or "all@0.8" for every class.
// The empty string yields nil (faults off). Per-class intensities are
// averaged into the spec's single knob after "all" expansion.
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	known := map[Class]bool{}
	for _, c := range Classes() {
		known[c] = true
	}
	spec := &Spec{}
	var sum float64
	var terms int
	for _, term := range strings.Split(s, ",") {
		name, val := term, ""
		if i := strings.IndexByte(term, '@'); i >= 0 {
			name, val = term[:i], term[i+1:]
		}
		name = strings.TrimSpace(name)
		intensity := DefaultIntensity
		if val != "" {
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			// The inverted comparison also rejects NaN, which satisfies
			// neither f <= 0 nor f > 1.
			if err != nil || !(f > 0 && f <= 1) {
				return nil, fmt.Errorf("faults: bad intensity %q in %q (want a number in (0,1])", val, term)
			}
			intensity = f
		}
		var add []Class
		if name == "all" {
			add = Classes()
		} else if known[Class(name)] {
			add = []Class{Class(name)}
		} else {
			return nil, fmt.Errorf("faults: unknown fault class %q (known: %v, or \"all\")", name, Classes())
		}
		for _, c := range add {
			dup := false
			for _, have := range spec.Classes {
				if have == c {
					dup = true
				}
			}
			if dup {
				continue
			}
			spec.Classes = append(spec.Classes, c)
			sum += intensity
			terms++
		}
	}
	spec.Intensity = sum / float64(terms)
	return spec, nil
}

// String renders the spec in ParseSpec's syntax. Every class carries the
// intensity explicitly — a trailing "@i" would bind only to the last
// class on re-parse, averaging the rest at the default and silently
// changing the spec.
func (s *Spec) String() string {
	if s == nil || len(s.Classes) == 0 {
		return ""
	}
	parts := make([]string, len(s.Classes))
	for i, c := range s.Classes {
		parts[i] = fmt.Sprintf("%s@%g", c, s.Intensity)
	}
	return strings.Join(parts, ",")
}

// splitmix64 is the generator behind plan instantiation: tiny, seedable,
// and identical on every platform, so a (Spec, Shape) pair maps to one
// plan forever.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// float returns a uniform draw in [0, 1).
func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *splitmix64) duration(lo, hi sim.Duration) sim.Duration {
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(r.next()%uint64(hi-lo))
}

// Instantiate draws a concrete plan for the given job shape. The draw is
// a pure function of (spec, shape); each class consumes an independent
// seeded stream, so enabling one class never shifts another's draw. An
// intensity i in (0, 1] faults roughly i/4 of the relevant components
// and scales each fault's severity linearly with i.
func (s *Spec) Instantiate(sh Shape) *Plan {
	if s == nil || len(s.Classes) == 0 || s.Intensity <= 0 {
		return nil
	}
	if sh.Ranks <= 0 || sh.Nodes <= 0 {
		panic(fmt.Sprintf("faults: Instantiate with shape %+v", sh))
	}
	i := math.Min(s.Intensity, 1)
	p := &Plan{}
	for _, c := range s.Classes {
		rng := &splitmix64{s: s.Seed<<8 + classSalt(c)}
		switch c {
		case ClassStraggler:
			for _, rank := range s.pick(rng, sh.Ranks, i) {
				factor := 1 + 7*i*(0.5+rng.float()) // up to ~8x slower at full intensity
				for _, w := range s.windows(rng) {
					p.Stragglers = append(p.Stragglers, Straggler{
						Rank: rank, Start: w[0], End: w[1], Factor: factor,
					})
				}
			}
		case ClassLink:
			for _, node := range s.pick(rng, sh.Nodes, i) {
				// The draw that once picked one of the node's NICs. A node
				// has one now, but dropping the draw would shift every later
				// value of the stream, and so every committed faulted table.
				rng.next()
				factor := math.Max(0.05, 1-0.9*i*(0.5+rng.float()))
				for _, w := range s.windows(rng) {
					p.Links = append(p.Links, LinkFault{
						Node: node, Start: w[0], End: w[1], Factor: factor,
					})
				}
			}
		case ClassNIC:
			for _, node := range s.pick(rng, sh.Nodes, i) {
				rng.next() // the retired NIC-index draw (see ClassLink)
				factor := 1 + 15*i*(0.5+rng.float())
				for _, w := range s.windows(rng) {
					p.NICs = append(p.NICs, NICThrottle{
						Node: node, Start: w[0], End: w[1], Factor: factor,
					})
				}
			}
		case ClassSharp:
			w := s.windows(rng)[0]
			p.Sharp = append(p.Sharp, SharpOutage{Start: w[0], End: w[1]})
		}
	}
	if err := p.Validate(sh); err != nil {
		panic(err) // the generator produced an invalid plan: a bug here
	}
	return p
}

// classSalt decorrelates the per-class rng streams.
func classSalt(c Class) uint64 {
	switch c {
	case ClassStraggler:
		return 0x51
	case ClassLink:
		return 0x11
	case ClassNIC:
		return 0xa1
	case ClassSharp:
		return 0x5a
	}
	return 0xff
}

// pick draws max(1, round(i*n/4)) distinct indices from [0, n), sorted
// for stable plan layout.
func (s *Spec) pick(rng *splitmix64, n int, i float64) []int {
	count := int(i*float64(n)/4 + 0.5)
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	chosen := map[int]bool{}
	for len(chosen) < count {
		chosen[rng.intn(n)] = true
	}
	out := make([]int, 0, count)
	for idx := range chosen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// windows draws the fault windows for one component: a single open-ended
// window starting at 0 when the spec has no horizon, or 1-3 flapping
// windows inside [0, Horizon) otherwise.
func (s *Spec) windows(rng *splitmix64) [][2]sim.Time {
	if s.Horizon <= 0 {
		return [][2]sim.Time{{0, 0}}
	}
	h := s.Horizon
	n := 1 + rng.intn(3)
	out := make([][2]sim.Time, 0, n)
	at := sim.Time(0)
	for k := 0; k < n; k++ {
		start := at.Add(rng.duration(0, h/sim.Duration(2*n)))
		end := start.Add(rng.duration(h/sim.Duration(4*n), h/sim.Duration(2*n)) + 1)
		out = append(out, [2]sim.Time{start, end})
		at = end
	}
	return out
}
