package cluster

import (
	"math/rand"

	"repro/internal/dist"
	"repro/internal/netem"
)

// Every random stream of a topology run derives from Options.Seed
// through dist.SeedAt, in one layout that Run and RunPipelined share,
// so the two engines draw the same numbers on every graph both can
// replay and the shard count only changes wall-clock time:
//
//   - Substream 1+s is client site s's network stream. It draws the
//     entry path's RTT and the entry tier's sampled spill detour for
//     each of the site's records, in the site's record order — the same
//     order on the single engine and on whichever shard holds the site.
//   - Substream 0 roots the routing streams (routeSeeds): each tier's
//     dispatcher or jockeying stream, each deeper spill edge's detour
//     stream, and the Bernoulli class stream.
//
// Each stream has its own random-access index, so no stream's seed
// depends on how many sites, tiers or edges the graph has.

// routeSeeds hands out the routing streams: tier ti's at index ti of
// the routing root, spill edge i's at len(Tiers)+i, the class stream
// after them.
type routeSeeds struct {
	root           int64
	tiers, classAt int
}

func newRouteSeeds(topo Topology, seed int64) routeSeeds {
	return routeSeeds{root: dist.SeedAt(seed, 0), tiers: len(topo.Tiers),
		classAt: len(topo.Tiers) + len(topo.Spills)}
}

func (r routeSeeds) at(i int) *rand.Rand { return dist.NewRand(dist.SeedAt(r.root, uint64(i))) }

func (r routeSeeds) tier(ti int) *rand.Rand { return r.at(ti) }

func (r routeSeeds) spill(i int) *rand.Rand { return r.at(r.tiers + i) }

func (r routeSeeds) class() *rand.Rand { return r.at(r.classAt) }

// netStreams holds the network streams of client sites lo, lo+1, ….
// A site's stream is built on its first random draw, so a graph whose
// entry paths are constant builds none, and the slots grow to the
// highest site drawn for.
type netStreams struct {
	seed int64 // Options.Seed
	lo   int
	rngs []*rand.Rand
}

func newNetStreams(seed int64, lo, width int) *netStreams {
	return &netStreams{seed: seed, lo: lo, rngs: make([]*rand.Rand, width)}
}

// draw samples p for a record of site (site >= lo).
func (n *netStreams) draw(p *netem.Path, site int) float64 {
	if _, constant := p.RTT.(dist.Deterministic); constant {
		return p.Sample(nil)
	}
	i := site - n.lo
	if i >= len(n.rngs) {
		n.rngs = append(n.rngs, make([]*rand.Rand, i+1-len(n.rngs))...)
	}
	rng := n.rngs[i]
	if rng == nil {
		rng = dist.NewRand(dist.SeedAt(n.seed, 1+uint64(site)))
		n.rngs[i] = rng
	}
	return p.Sample(rng)
}
