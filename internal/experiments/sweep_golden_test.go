package experiments

// The sweep golden pins the rate-sweep runners' output across commits:
// the Figure 3 pair at one and two servers per site, the Figure 7
// cutoffs, the three-tier hierarchy figure, and the replicated sweep
// with its crossover confidence interval. Short durations keep it
// cheap; full float64 precision makes any change to a seed, a spec or
// a pairing show. A change that alters results on purpose regenerates
// the file with
//
//	go test ./internal/experiments -run TestSweepGolden -update
//
// and says in its description why every figure moved.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.txt from the current code")

const sweepGoldenPath = "testdata/sweep_golden.txt"

func TestSweepGolden(t *testing.T) {
	var b bytes.Buffer

	fig3, err := RunFig3("typical-25ms", 90, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m     int
		sweep TopologySweepResult
	}{{1, fig3.OneServer}, {2, fig3.TwoServer}} {
		for i, p := range c.sweep.Points {
			e, cloud := &p.EndToEnd, &c.sweep.Rivals[0][i].EndToEnd
			fmt.Fprintf(&b, "fig3 m=%d rate=%v util=%v edge mean=%v median=%v p95=%v n=%d cloud mean=%v median=%v p95=%v n=%d\n",
				c.m, c.sweep.Config.Rates[i], p.Tiers[0].Utilization, e.Mean(), e.Median(), e.P95(), e.N(),
				cloud.Mean(), cloud.Median(), cloud.P95(), cloud.N())
		}
		for _, m := range []Metric{Mean, P95} {
			rate, _, ok := c.sweep.Crossover(m, 0)
			util := 0.0
			if ok {
				util = rate / c.sweep.Config.Model.Mu()
			}
			fmt.Fprintf(&b, "fig3 m=%d crossover %s rate=%v util=%v found=%v\n", c.m, m, rate, util, ok)
		}
	}

	fig7, err := RunFig7(75, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig7 {
		fmt.Fprintf(&b, "fig7 %s rtt=%v mean cutoff=%v rate=%v inverted=%v p95 cutoff=%v rate=%v inverted=%v\n",
			p.Scenario, p.CloudRTTms, p.MeanCutoff, p.MeanRate, p.MeanInverted, p.P95Cutoff, p.P95Rate, p.P95Inverted)
	}

	tiers, err := RunFigThreeTier(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tiers.Points {
		cloud, over, chain := tiers.Rivals[0][i], tiers.Rivals[1][i], tiers.Rivals[2][i]
		share := func(spilled uint64) float64 { return float64(spilled) / float64(p.Offered) }
		fmt.Fprintf(&b, "three-tier rate=%v edge %v/%v cloud %v/%v overflow %v/%v chain %v/%v spill overflow=%v chain-reg=%v chain-cld=%v\n",
			tiers.Config.Rates[i], p.EndToEnd.Mean(), p.EndToEnd.P95(), cloud.EndToEnd.Mean(), cloud.EndToEnd.P95(),
			over.EndToEnd.Mean(), over.EndToEnd.P95(), chain.EndToEnd.Mean(), chain.EndToEnd.P95(),
			share(over.Tiers[0].Spilled), share(chain.Tiers[0].Spilled), share(chain.Tiers[1].Spilled))
	}

	cfg := paperPair("typical-25ms", 1)
	cfg.Rates = []float64{7, 9, 11}
	cfg.Duration = 80
	cfg.Warmup = 8
	cfg.Seed = 5
	reps, err := RunReplicatedSweep(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reps {
		fmt.Fprintf(&b, "replicated %+v\n", p)
	}
	for _, m := range []Metric{Mean, P95} {
		rate, ci, ok, err := CrossoverCI(cfg, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "crossover-ci %s rate=%v ci=%v found=%v\n", m, rate, ci, ok)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(sweepGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, b.Bytes()) {
		return
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", sweepGoldenPath, i+1, g, w)
		}
	}
}
