package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"agingpred/internal/fleet"
)

// The smoke test runs every workload at a tiny size from the repository
// root, where the serve workload finds its model:
//
//	cd perfbench && go test ./...

func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	tinyFleet = fleetSize{Instances: 16, Duration: 12 * time.Hour}
	tinyServe = serveSize{
		Instances: 4,
		Duration:  2 * time.Hour,
		Window:    8,
		Ladder:    []ladderStep{{5e3, 0.4}, {20e3, 0.3}},
		Rounds:    2,
	}
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	runs := map[string]func(trace bool, r *report) error{
		"fleet":          func(tr bool, r *report) error { return runFleet(tinyFleet, false, 3, 1, tr, r) },
		"fleet-adaptive": func(tr bool, r *report) error { return runFleet(tinyFleet, true, 3, 1, tr, r) },
		"serve":          func(tr bool, r *report) error { return runServe(tinyServe, 3, 1, tr, r) },
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			r := newReport()
			if err := run(trace, r); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				r.set("peak_rss_mb", "MB", peakRSSMB())
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, r.attempted, r.failed)
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", name, trace, len(r.metrics), len(want))
			}
			for n, unit := range want {
				if got, ok := r.metrics[n]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, n, got, unit)
				}
			}
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	m, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	g, err := startRig(m, 3, fleet.Specs(3, tinyServe.Instances), tinyServe.Duration)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	g.streams[0].want[0].ttfSec++
	r := newReport()
	st, err := g.closedLoop(tinyServe.Window, time.Now().Add(200*time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	account(r, st)
	if r.failed == 0 {
		t.Errorf("serve: a corrupted reference prediction was not counted as failed (%d attempted)", r.attempted)
	}

	job, err := setupFleet(tinyFleet, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := runFleetPhase([]fleetJob{job}, 2, false, time.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reportKey(ph.runs[0].rep)
	if err != nil {
		t.Fatal(err)
	}
	ref[len(ref)/2] ^= 1
	r = newReport()
	if err := ph.check([][]byte{ref}, r); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("fleet: a corrupted reference report was not counted as failed")
	}
}
