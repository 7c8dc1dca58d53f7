// Command perfbench is the repository's benchmark. It drives agingpred only
// through the public functions of its packages and prints, as the last line
// of standard output, one JSON object with the workload's metrics:
//
//	go run . --workload fleet --seed 1 --seconds 10 --trace 0
//
// Workloads: fleet, fleet-adaptive and serve (see README.md for why each
// exists). --trace 0 prints the end-to-end metrics; --trace 1 runs the
// per-layer probes instead and prints the per-layer metrics. Every output of
// the program is checked, and a mismatch counts as a failed operation.
//
// Run it from the repository root (perfbench/run.sh does the build): the
// serve workload loads the committed golden model from
// internal/core/testdata.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, the operations it attempted and failed,
// and the sample count behind each percentile.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	samples           map[string]int
	notes             []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload for the given measuring time; trace selects
// the per-layer run.
type workload func(seed uint64, seconds float64, trace bool, r *report) error

var workloads = map[string]workload{
	"fleet": func(seed uint64, s float64, tr bool, r *report) error {
		return runFleet(defaultFleetSize, false, seed, s, tr, r)
	},
	"fleet-adaptive": func(seed uint64, s float64, tr bool, r *report) error {
		return runFleet(defaultFleetSize, true, seed, s, tr, r)
	},
	"serve": func(seed uint64, s float64, tr bool, r *report) error {
		return runServe(defaultServeSize, seed, s, tr, r)
	},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: fleet, fleet-adaptive or serve")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measuring time of the run, wall seconds")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q (fleet, fleet-adaptive or serve)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	r := newReport()
	if err := w(*seed, *seconds, *trace == 1, r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if *trace == 0 {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return printResult(stdout, *name, *seed, r)
}

// printResult writes the host stamp and the percentile sample counts, then
// the result object as the last line.
func printResult(w io.Writer, name string, seed uint64, r *report) error {
	stamp := map[string]any{
		"workload":   name,
		"seed":       seed,
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"samples":    r.samples,
		"notes":      r.notes,
	}
	host, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# %s\n%s\n", host, line)
	return err
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" when the
// platform has none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set, in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// budget is a run's measuring time, handed out to its phases in shares.
type budget struct{ total time.Duration }

func newBudget(seconds float64) budget {
	return budget{total: time.Duration(seconds * float64(time.Second))}
}

// share is the length of a phase given share (0..1) of the run.
func (b budget) share(f float64) time.Duration { return time.Duration(f * float64(b.total)) }

// until is the deadline of a phase that starts now.
func (b budget) until(f float64) time.Time { return time.Now().Add(b.share(f)) }

// interleave runs the variants in turn, rotating which goes first, until the
// deadline and at least twice each, so a slow spell of the host falls on all
// of them alike.
func interleave(deadline time.Time, variants ...func() error) error {
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for k := range variants {
			if err := variants[(round+k)%len(variants)](); err != nil {
				return err
			}
		}
	}
	return nil
}
