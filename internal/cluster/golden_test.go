package cluster_test

// The replay golden pins simulator output across commits. The
// equivalence suites prove that two paths agree with each other; they
// cannot see a change that moves both at once, such as a reordered
// event calendar. This test replays every shipped preset, and the
// admission-and-drops deterministicTopology, through the serial Run and
// through RunPipelined at 1 and 4 shards, checks that the engines
// agree and print identical rows, and compares per-tier counters, the
// run duration and end-to-end latency at full float64 precision against
// testdata/replay_golden.txt.
//
// A change that alters results on purpose regenerates the file with
//
//	go test ./internal/cluster -run TestReplayGolden -update
//
// and says in its description why every figure moved. The file holds
// amd64 floats; a platform that fuses multiply-adds may differ in the
// last bits.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay_golden.txt from the current code")

const goldenPath = "testdata/replay_golden.txt"

// goldenLatency formats a digest's mean and p50/p95/p99 at %v.
func goldenLatency(d *stats.Digest) string {
	return fmt.Sprintf("mean=%v p50=%v p95=%v p99=%v", d.Mean(), d.Median(), d.P95(), d.P99())
}

// goldenRows formats one run's pinned figures, to follow its label.
func goldenRows(res *cluster.TopologyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "duration=%v offered=%d completed=%d dropped=%d rejected=%d e2e %s\n",
		res.Duration, res.Offered, res.Completed, res.Dropped, res.Rejected, goldenLatency(&res.EndToEnd))
	for i := range res.Tiers {
		tr := &res.Tiers[i]
		fmt.Fprintf(&b, "  tier %s served=%d spilled=%d dropped=%d rejected=%d e2e %s\n",
			tr.Name, tr.Served, tr.Spilled, tr.Dropped, tr.Rejected, goldenLatency(&tr.EndToEnd))
	}
	return b.String()
}

// TestReplayGolden: every preset's replay output, plus that of
// deterministicTopology (admission, a capped queue and a pinned class),
// matches the committed golden on both engines at a moderate and an
// overloaded per-site rate, and the engines' rows are identical.
func TestReplayGolden(t *testing.T) {
	topos := []cluster.Topology{deterministicTopology()}
	for _, preset := range cluster.TopologyPresets() {
		topo, ok := cluster.PresetTopology(preset)
		if !ok {
			t.Fatalf("unknown preset %q", preset)
		}
		topos = append(topos, topo)
	}
	var b bytes.Buffer
	for _, topo := range topos {
		for _, rate := range []float64{9, 13} {
			spec := presetSpec(topo.Tiers[0].Sites, 1)
			spec.PerSiteRate = rate
			opts := cluster.Options{Warmup: 30, Seed: 1, Summary: stats.Bounded}
			label := fmt.Sprintf("%s rate=%v", topo.Name, rate)
			res, err := cluster.Run(cluster.Stream(spec), topo, opts)
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			rows := goldenRows(res)
			fmt.Fprintf(&b, "%s run %s", label, rows)
			for _, shards := range []int{1, 4} {
				pres, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, shards)
				if err != nil {
					t.Fatalf("%s: RunPipelined(%d): %v", label, shards, err)
				}
				plabel := fmt.Sprintf("%s pipelined-%d", label, shards)
				prows := goldenRows(pres)
				fmt.Fprintf(&b, "%s %s", plabel, prows)
				if prows != rows {
					t.Errorf("%s rows:\n%swant Run's:\n%s", plabel, prows, rows)
				}
				agreeAcrossEngines(t, plabel, res, pres)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
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
			t.Errorf("%s line %d:\n got  %s\n want %s", goldenPath, i+1, g, w)
		}
	}
}
