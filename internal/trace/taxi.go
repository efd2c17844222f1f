package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/stats"
)

// TaxiSpec parameterizes the synthetic vehicular-mobility workload that
// substitutes for the CRAWDAD San Francisco taxi GPS traces behind the
// paper's Figure 2. Vehicles move over a hexagonal cell grid (1 km
// radius cells in the paper); a handful of hotspot cells attract traffic
// with gravity weights, and attraction follows a diurnal cycle.
type TaxiSpec struct {
	GridW, GridH int     // hex grid dimensions (cells)
	Vehicles     int     // number of simulated vehicles
	Hours        float64 // simulated duration
	StepMinutes  float64 // sampling interval
	Hotspots     int     // number of high-gravity cells
	HotspotPull  float64 // probability a moving vehicle heads to a hotspot
	Seed         int64
}

// DefaultTaxiSpec approximates the paper's setting: ~500 taxis over a
// city-scale grid sampled for a day.
func DefaultTaxiSpec() TaxiSpec {
	return TaxiSpec{
		GridW: 8, GridH: 8,
		Vehicles:    500,
		Hours:       24,
		StepMinutes: 10,
		Hotspots:    5,
		HotspotPull: 0.7,
		Seed:        7,
	}
}

// CellLoad is the time series of vehicle counts observed in one cell.
type CellLoad struct {
	Cell   int
	Counts []int
}

// TaxiCellLoads simulates vehicle mobility and returns per-cell load
// series. Each vehicle performs a biased random walk: with probability
// HotspotPull it steps toward the nearest hotspot (whose attractiveness
// is modulated by a diurnal sine), otherwise it moves to a uniformly
// random neighboring cell.
func TaxiCellLoads(spec TaxiSpec) []CellLoad {
	if spec.GridW <= 0 || spec.GridH <= 0 || spec.Vehicles <= 0 {
		panic(fmt.Sprintf("trace: invalid TaxiSpec %+v", spec))
	}
	rng := dist.NewRand(spec.Seed)
	cells := spec.GridW * spec.GridH
	steps := int(spec.Hours * 60 / spec.StepMinutes)
	if steps <= 0 {
		panic("trace: TaxiSpec duration too short")
	}

	// Place hotspots at distinct random cells.
	hotspots := make([]int, 0, spec.Hotspots)
	taken := make(map[int]bool)
	for len(hotspots) < spec.Hotspots {
		c := rng.Intn(cells)
		if !taken[c] {
			taken[c] = true
			hotspots = append(hotspots, c)
		}
	}

	// Initialize vehicle positions uniformly.
	pos := make([]int, spec.Vehicles)
	for i := range pos {
		pos[i] = rng.Intn(cells)
	}

	loads := make([]CellLoad, cells)
	for c := range loads {
		loads[c] = CellLoad{Cell: c, Counts: make([]int, steps)}
	}

	for t := 0; t < steps; t++ {
		// Diurnal modulation: hotspots pull hardest mid-day.
		hour := float64(t) * spec.StepMinutes / 60
		diurnal := 0.5 + 0.5*math.Sin((hour-6)/24*2*math.Pi)
		pull := spec.HotspotPull * diurnal

		for v := range pos {
			if rng.Float64() < pull {
				// Step toward the nearest hotspot.
				h := nearestHotspot(pos[v], hotspots, spec.GridW)
				pos[v] = stepToward(pos[v], h, spec.GridW, spec.GridH)
			} else {
				pos[v] = randomNeighbor(pos[v], spec.GridW, spec.GridH, rng)
			}
		}
		for _, p := range pos {
			loads[p].Counts[t]++
		}
	}
	return loads
}

func cellXY(c, w int) (int, int) { return c % w, c / w }

func xyCell(x, y, w int) int { return y*w + x }

func nearestHotspot(c int, hotspots []int, w int) int {
	cx, cy := cellXY(c, w)
	best, bestD := hotspots[0], math.MaxInt32
	for _, h := range hotspots {
		hx, hy := cellXY(h, w)
		d := abs(hx-cx) + abs(hy-cy)
		if d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func stepToward(c, target, w, h int) int {
	cx, cy := cellXY(c, w)
	tx, ty := cellXY(target, w)
	switch {
	case tx > cx:
		cx++
	case tx < cx:
		cx--
	case ty > cy:
		cy++
	case ty < cy:
		cy--
	}
	return clampCell(cx, cy, w, h)
}

func randomNeighbor(c, w, h int, rng *rand.Rand) int {
	cx, cy := cellXY(c, w)
	switch rng.Intn(5) {
	case 0:
		cx++
	case 1:
		cx--
	case 2:
		cy++
	case 3:
		cy--
	}
	return clampCell(cx, cy, w, h)
}

func clampCell(x, y, w, h int) int {
	if x < 0 {
		x = 0
	}
	if x >= w {
		x = w - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= h {
		y = h - 1
	}
	return xyCell(x, y, w)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// CellBoxPlots summarizes each cell's load series as a box plot, ordered
// by descending median — the format of Figure 2.
func CellBoxPlots(loads []CellLoad) []stats.BoxPlot {
	out := make([]stats.BoxPlot, 0, len(loads))
	for _, l := range loads {
		s := stats.NewSample(len(l.Counts))
		for _, c := range l.Counts {
			s.Add(float64(c))
		}
		out = append(out, stats.BoxPlotOf(fmt.Sprintf("cell-%d", l.Cell), s))
	}
	// Sort by descending median (insertion sort keeps this dependency-free).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Median > out[j-1].Median; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
