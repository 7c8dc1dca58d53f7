package benchjson

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *File {
	return &File{
		Bench:   "fleet",
		Command: "agingbench -bench-json BENCH_fleet.json",
		Env:     CurrentEnv(),
		Runs: []Run{
			{
				Label:   "fleet/shards-1",
				Stamp:   "2026-08-08",
				Metrics: map[string]float64{"icp_per_sec": 2.35e6},
			},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sample()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != want.Bench || got.Command != want.Command || got.Env != want.Env {
		t.Fatalf("header round-trip mismatch: %+v != %+v", got, want)
	}
	if len(got.Runs) != 1 || got.Runs[0].Label != "fleet/shards-1" ||
		got.Runs[0].Metrics["icp_per_sec"] != 2.35e6 {
		t.Fatalf("runs round-trip mismatch: %+v", got.Runs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "}\n") {
		t.Fatalf("file should end with a single trailing newline, got %q", data[len(data)-4:])
	}
}

func TestCurrentEnvPopulated(t *testing.T) {
	env := CurrentEnv()
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" {
		t.Fatalf("CurrentEnv left identification fields empty: %+v", env)
	}
	if env.NumCPU <= 0 || env.GoMaxProcs <= 0 {
		t.Fatalf("CurrentEnv should record positive CPU counts, got num_cpu=%d gomaxprocs=%d",
			env.NumCPU, env.GoMaxProcs)
	}
}

func TestMergeAppendsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := Merge(path, sample()); err != nil { // creates
		t.Fatal(err)
	}
	second := sample()
	second.Runs[0].Label = "fleet/shards-4"
	if err := Merge(path, second); err != nil { // appends
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Label != "fleet/shards-1" || got.Runs[1].Label != "fleet/shards-4" {
		t.Fatalf("merge should append runs in order, got %+v", got.Runs)
	}
}

// TestMergeKeepsEarlierRunsEnv pins that appending a session measured on
// another machine relabels none of the earlier runs: they keep the old
// file-level env as their own, the new runs inherit the new one, and a
// third session on the same machine as the second copies nothing more.
func TestMergeKeepsEarlierRunsEnv(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	first := sample()
	first.Env = Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 1, GoMaxProcs: 1}
	if err := Merge(path, first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Env = Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GoMaxProcs: 2, CPUModel: "Test CPU"}
	second.Runs[0].Label = "fleet/shards-2"
	if err := Merge(path, second); err != nil {
		t.Fatal(err)
	}
	third := sample()
	third.Env = second.Env
	third.Runs[0].Label = "fleet/shards-4"
	if err := Merge(path, third); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Env != second.Env {
		t.Fatalf("file env = %+v, want the latest session's %+v", got.Env, second.Env)
	}
	if len(got.Runs) != 3 {
		t.Fatalf("want 3 runs, got %+v", got.Runs)
	}
	if got.Runs[0].Env == nil || *got.Runs[0].Env != first.Env {
		t.Fatalf("earlier run's env = %+v, want the env it was measured under %+v", got.Runs[0].Env, first.Env)
	}
	for _, r := range got.Runs[1:] {
		if r.Env != nil {
			t.Fatalf("run %s measured on the file-level machine carries its own env %+v", r.Label, *r.Env)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("parsing garbage succeeded")
	}
}
