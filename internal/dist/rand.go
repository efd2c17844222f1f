package dist

import (
	"math/bits"
	"math/rand"
)

// NewRand returns a stream over xoshiro256** (Blackman & Vigna,
// "Scrambled linear pseudorandom number generators", 2018), its four
// state words the first four outputs of splitmix64 over seed. Every
// engine, generator and oracle stream of the simulator comes from here:
// it costs 80 B and two allocations to build, where a math/rand source
// holds a 607-word table (~5 KB), so per-site streams stay cheap at any
// site count.
func NewRand(seed int64) *rand.Rand {
	x := &xoshiro{}
	x.Seed(seed)
	return rand.New(x)
}

// SeedAt returns output i of the splitmix64 sequence over seed: the
// seed of substream i of a run. Unlike drawing seeds from a master
// stream, it is random-access, so a substream's seed does not depend on
// how many substreams precede it or on how many there are.
func SeedAt(seed int64, i uint64) int64 {
	return int64(splitmix64(uint64(seed) + (i+1)*golden))
}

// golden is splitmix64's increment, 2⁶⁴/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// xoshiro is a xoshiro256** generator; it implements rand.Source64.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// Seed sets the state to SeedAt(seed, 0..3). splitmix64 is a bijection
// of distinct inputs, so the four words are never all zero.
func (x *xoshiro) Seed(seed int64) {
	x.s0 = uint64(SeedAt(seed, 0))
	x.s1 = uint64(SeedAt(seed, 1))
	x.s2 = uint64(SeedAt(seed, 2))
	x.s3 = uint64(SeedAt(seed, 3))
}

func (x *xoshiro) Uint64() uint64 {
	r := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return r
}

func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }
