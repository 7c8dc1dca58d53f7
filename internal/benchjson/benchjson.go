// Package benchjson reads and writes the repo's committed benchmark
// trajectory files (BENCH_*.json): small, stable-keyed JSON documents holding
// one measurement environment and a list of labeled runs, so performance
// claims in the docs are backed by parseable datapoints instead of numbers
// pasted into prose. The format is append-friendly — a new measurement session
// loads the file, appends its runs, and writes it back — and deliberately
// minimal: no wall-clock timestamps beyond the caller-provided stamp, so
// regenerating a file on the same machine produces stable diffs.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Env describes the machine a measurement ran on.
type Env struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler's worker cap at measurement time — on a
	// throttled or containerised host it can be lower than NumCPU, and fleet
	// shard scaling numbers are meaningless without it.
	GoMaxProcs int `json:"gomaxprocs"`
	// CPUModel is the processor's marketing name (the first "model name"
	// line of /proc/cpuinfo); empty where that cannot be read.
	CPUModel string `json:"cpu_model,omitempty"`
}

// CurrentEnv captures the running process's environment.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" value of /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Run is one labeled measurement: a named configuration and its metrics
// (metric name → value, units encoded in the metric name, e.g.
// "icp_per_sec", "ns_per_checkpoint").
type Run struct {
	// Label identifies the configuration ("fleet/shards-1", "observe/batch").
	Label string `json:"label"`
	// Stamp is a caller-provided marker for when/what was measured — a date,
	// a git describe, or a PR tag. Free-form.
	Stamp string `json:"stamp,omitempty"`
	// Note carries context a number alone cannot ("pre-PR baseline,
	// measured from a worktree at the seed commit").
	Note string `json:"note,omitempty"`
	// Metrics holds the measured values.
	Metrics map[string]float64 `json:"metrics"`
	// Env is the machine this run was measured on, when it differs from the
	// file-level Env (set by Merge on the runs of an earlier machine).
	Env *Env `json:"env,omitempty"`
}

// File is one benchmark trajectory document.
type File struct {
	// Bench names the benchmark family the file tracks ("fleet").
	Bench string `json:"bench"`
	// Command reproduces the measurement ("agingbench -bench-json ...").
	Command string `json:"command,omitempty"`
	// Env is the machine of the latest session, and of every run that
	// carries no Env of its own.
	Env  Env   `json:"env"`
	Runs []Run `json:"runs"`
}

// Read loads a trajectory file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	return &f, nil
}

// Write renders the file as indented JSON with a trailing newline (so the
// committed artifact is diff- and cat-friendly) and writes it atomically via
// a rename from a sibling temp file.
func Write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: encoding %s: %w", path, err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Merge appends runs to an existing trajectory file, creating it when
// missing. The file-level environment becomes the current session's; when
// that changes it, every earlier run without an Env of its own is first
// given the old file-level one, so no run is relabelled to a machine it
// never ran on.
func Merge(path string, f *File) error {
	old, err := Read(path)
	if os.IsNotExist(err) {
		return Write(path, f)
	}
	if err != nil {
		return err
	}
	old.Bench = f.Bench
	if f.Command != "" {
		old.Command = f.Command
	}
	if old.Env != f.Env {
		for i := range old.Runs {
			if old.Runs[i].Env == nil {
				env := old.Env
				old.Runs[i].Env = &env
			}
		}
		old.Env = f.Env
	}
	old.Runs = append(old.Runs, f.Runs...)
	return Write(path, old)
}
