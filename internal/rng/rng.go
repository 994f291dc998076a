// Package rng provides deterministic pseudo-random streams for the
// discrete-event simulator.
//
// The generator is PCG-XSH-RR (O'Neill 2014), implemented locally so that
// simulation runs are reproducible across Go versions: the standard
// library reserves the right to change math/rand's sequence, which would
// silently move every regression baseline in this repository.
//
// Each simulation entity (per-class arrival process, per-link service
// process, ...) draws from its own Stream, derived from a master seed by
// SplitMix64 so that changing one entity's consumption pattern does not
// perturb any other entity's variates (common random numbers).
package rng

import "math"

// Stream is a single deterministic PCG-32 random stream.
// The zero value is NOT usable; construct with New or Split.
type Stream struct {
	state uint64
	inc   uint64 // stream selector, always odd
	seed  uint64 // construction seed, kept so Split can derive children
}

const pcgMult = 6364136223846793005

// defaultSeq is the sequence selector New uses.
const defaultSeq = 0xda3e39cb94b95bdb

// New returns a stream seeded from seed with the default sequence
// selector.
func New(seed uint64) *Stream {
	return NewSeq(seed, defaultSeq)
}

// NewSeq returns a stream seeded from seed on sequence seq. Distinct seq
// values give statistically independent streams for the same seed.
func NewSeq(seed, seq uint64) *Stream {
	s := &Stream{}
	s.ReseedSeq(seed, seq)
	return s
}

// Reseed reinitialises s in place to the exact state New(seed) returns,
// without allocating. It exists for hot loops that rebuild a fixed set of
// streams once per replication (the simulator's reusable runner state).
func (s *Stream) Reseed(seed uint64) {
	s.ReseedSeq(seed, defaultSeq)
}

// ReseedSeq reinitialises s in place to the exact state NewSeq(seed, seq)
// returns, without allocating.
func (s *Stream) ReseedSeq(seed, seq uint64) {
	s.inc = seq<<1 | 1
	s.seed = seed
	s.state = 0
	s.next() // advance past the all-zeros state per PCG reference init
	s.state += seed
	s.next()
}

// Split derives the i-th child stream. Children of the same parent with
// distinct indices are independent; splitting does not perturb the parent
// and does not depend on how much of the parent has been consumed.
func (s *Stream) Split(i uint64) *Stream {
	child := &Stream{}
	s.SplitInto(i, child)
	return child
}

// SplitInto writes the i-th child stream into child without allocating:
// child ends in the exact state s.Split(i) would return. Like Split it
// neither perturbs nor depends on the parent's consumption.
func (s *Stream) SplitInto(i uint64, child *Stream) {
	// SplitMix64 over (seed, inc, i) gives seed and sequence for the
	// child.
	h := splitMix64(s.seed ^ splitMix64(s.inc) ^ splitMix64(^i))
	child.ReseedSeq(h, splitMix64(h+i))
}

// SubSeed derives the i-th replication seed from a master seed.
// SubSeed(seed, 0) == seed, so the first replication of a batch reproduces
// the plain single run with the same master seed; higher indices are
// SplitMix64-scrambled, giving streams statistically independent of the
// master's and of each other's. The derivation depends only on (seed, i),
// never on execution order, which is what makes batched replications
// deterministic under any worker count.
func SubSeed(seed, i uint64) uint64 {
	if i == 0 {
		return seed
	}
	return splitMix64(seed ^ splitMix64(i*0x9e3779b97f4a7c15))
}

func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next advances the PCG state and returns 32 output bits.
func (s *Stream) next() uint32 {
	old := s.state
	s.state = old*pcgMult + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Ziggurat tables for the standard exponential density (Marsaglia &
// Tsang 2000), 256 layers: zigKe are the 32-bit acceptance thresholds,
// zigWe the per-layer scale factors and zigFe the density at each layer
// edge. Built once at init from the published recurrence rather than
// pasted in, so the tables are exactly self-consistent in this binary's
// arithmetic.
var (
	zigKe [256]uint32
	zigWe [256]float64
	zigFe [256]float64
)

// zigR is the right edge of the base ziggurat layer.
const zigR = 7.69711747013104972

func init() {
	const m = 1 << 32
	const v = 0.0039496598225815571993 // area of each layer
	de, te := zigR, zigR
	q := v / math.Exp(-de)
	zigKe[0] = uint32(de / q * m)
	zigKe[1] = 0
	zigWe[0] = q / m
	zigWe[255] = de / m
	zigFe[0] = 1
	zigFe[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(v/de + math.Exp(-de))
		zigKe[i+1] = uint32(de / te * m)
		te = de
		zigFe[i] = math.Exp(-de)
		zigWe[i] = de / m
	}
}

// ExpMean returns an exponential variate with the given mean (> 0). It
// draws the same distribution as Exp(1/mean) with one division fewer;
// the simulator's event loop is division-bound enough for the spelling
// to matter.
func (s *Stream) ExpMean(mean float64) float64 {
	if mean <= 0 {
		panic("rng: ExpMean requires mean > 0")
	}
	return s.expUnit() * mean
}

// expUnit returns a standard (rate-1) exponential variate.
func (s *Stream) expUnit() float64 {
	for {
		j := s.next()
		i := j & 255
		x := float64(j) * zigWe[i]
		if j < zigKe[i] {
			return x // inside the layer rectangle: accept outright
		}
		if i == 0 {
			// Base-layer tail: beyond zigR the residual is itself
			// exponential (memorylessness), sampled by inversion.
			return zigR - math.Log(1-s.Float64())
		}
		// Wedge: accept x with probability proportional to how far the
		// density at x pokes above the layer's lower edge.
		if zigFe[i]+s.Float64()*(zigFe[i-1]-zigFe[i]) < math.Exp(-x) {
			return x
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn requires n > 0")
	}
	// Lemire's nearly-divisionless bounded rejection on 32 bits when the
	// bound fits, otherwise modulo on 64 bits (n never approaches 2^63 in
	// this repository, so bias is negligible there).
	if n <= 1<<31-1 {
		bound := uint32(n)
		for {
			v := s.next()
			prod := uint64(v) * uint64(bound)
			low := uint32(prod)
			if low >= bound || low >= uint32(-bound)%bound {
				return int(prod >> 32)
			}
		}
	}
	return int(s.Uint64() % uint64(n))
}
