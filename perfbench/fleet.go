package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"agingpred"
	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
)

// fleetSize is a fleet workload's input size.
type fleetSize struct {
	Instances int
	Duration  time.Duration // simulated serving time
}

// defaultFleetSize keeps one fleet.Run of either workload near 2 s on a
// 2-vCPU host, so a run holds several repetitions.
var defaultFleetSize = fleetSize{Instances: 500, Duration: 24 * time.Hour}

// The adaptive fleet's retrain schedule. With the auto-calibrated drift
// detector the retrain count of a 250-instance day ranged from 1 to 7 over
// seeds 1-5, so the workload's cost was a lottery over seeds. A baseline
// pinned near zero trips on the first resolved crash, so a retrain starts
// then and publishes retrainLatency later, when the next one starts on the
// supervisor's default buffer of the latest runs; the run joins that one at
// its end. At 8 h, the tick also waited on a full-buffer retrain mid-day, for
// 0.4-1.4 s depending on when the first crash fell, which moved throughput
// by 30 % between seeds. This is agingfleet -adaptive -drift-baseline 1ms
// -retrain-latency 12h.
const (
	driftBaseline  = time.Millisecond
	retrainLatency = 12 * time.Hour
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 5

// minReps is the fewest timed repetitions a phase runs, however long each
// takes.
const minReps = 3

// populations is how many fleet.Specs populations a fleet run cycles
// through. The cost of one population depends on its draw: on
// fleet-adaptive its crashes set what the retrains train on and how long
// they take, and one seed's median tick differed from another's by up to
// 20 %, about as much as the host's own noise. A median over repetitions of
// several draws moves less with the workload seed than one draw does.
const populations = 3

// populationSeeds are the seeds of the populations a run with the given
// workload seed cycles through; distinct workload seeds give disjoint sets.
func populationSeeds(seed uint64) []uint64 {
	out := make([]uint64, populations)
	for k := range out {
		out[k] = seed*populations + uint64(k)
	}
	return out
}

// fleetJob is one fleet workload's fixed inputs: the population is
// fleet.Specs(seed, Instances), drawn inside fleet.Run.
type fleetJob struct {
	size     fleetSize
	seed     uint64
	adaptive bool
	model    *core.Model
	seedRuns []*monitor.Series // the adaptive supervisor's initial buffer
}

// trainingSeed draws the training executions of the fleet workloads' model.
// It is fixed, as the serve workload's committed model is, so that the
// workload seed varies only the served population: M5P training time and
// tree shape depend on the training data, and moved set-up time by a factor
// of two between seeds 1-5.
const trainingSeed = 1

// setupFleet trains the shared model as agingfleet does without -load: on
// fleet.TrainingSeries with the default configuration. An adaptive fleet
// seeds its supervisor's buffer with the same series, as fleet.Run does
// when it trains the model itself.
func setupFleet(size fleetSize, seed uint64, adaptive bool) (fleetJob, error) {
	series, err := fleet.TrainingSeries(trainingSeed)
	if err != nil {
		return fleetJob{}, err
	}
	m, err := core.Train(core.Config{}, series)
	if err != nil {
		return fleetJob{}, err
	}
	return fleetJob{size: size, seed: seed, adaptive: adaptive, model: m, seedRuns: series}, nil
}

// tickClock is the run's Config.Ctx. fleet.Run checks it a fixed number of
// times per tick, first at the tick's start, so its Err calls mark the tick
// boundaries; it never cancels.
type tickClock struct {
	context.Context
	base  time.Time
	polls []time.Duration
}

func (c *tickClock) Err() error {
	c.polls = append(c.polls, time.Since(c.base))
	return nil
}

// fleetRun is the outcome of one timed fleet.Run.
type fleetRun struct {
	pop   int // index of the job the run executed in its phase's job list
	rep   *fleet.Report
	wall  time.Duration
	polls []time.Duration // the engine's context polls, since the run began
	ticks []float64       // wall seconds per tick
}

// run executes one fleet.Run at the given shard count and times it; with
// the clock it also times each tick. Every run starts from a collected heap,
// so that no run pays for the garbage of the one before it.
func (j fleetJob) run(shards int, clocked bool) (fleetRun, error) {
	runtime.GC()
	ticks := int(j.size.Duration / monitor.DefaultInterval)
	cfg := fleet.Config{
		Instances: j.size.Instances,
		Shards:    shards,
		Duration:  j.size.Duration,
		Seed:      j.seed,
		Model:     j.model,
		Adaptive:  j.adaptive,
	}
	var clock *tickClock
	if clocked {
		clock = &tickClock{Context: context.Background(), polls: make([]time.Duration, 0, 2*ticks)}
		cfg.Ctx = clock
	}
	if j.adaptive {
		cfg.Adapt = adapt.Config{
			Seed:     j.seedRuns,
			Detector: adapt.DetectorConfig{BaselineSec: driftBaseline.Seconds()},
		}
		cfg.RetrainLatency = retrainLatency
	}
	start := time.Now()
	if clock != nil {
		clock.base = start
	}
	rep, err := fleet.Run(cfg)
	out := fleetRun{rep: rep, wall: time.Since(start)}
	if err != nil || clock == nil {
		return out, err
	}
	out.polls = clock.polls
	out.ticks, err = tickSeconds(clock.polls, ticks, out.wall)
	return out, err
}

// tickSeconds turns the engine's context polls into per-tick wall times:
// tick i runs from its first poll to the next tick's first poll (the last
// one to the end of the run).
func tickSeconds(polls []time.Duration, ticks int, end time.Duration) ([]float64, error) {
	if ticks == 0 || len(polls)%ticks != 0 || len(polls) == 0 {
		return nil, fmt.Errorf("fleet.Run polled Config.Ctx %d times over %d ticks; cannot find the tick boundaries", len(polls), ticks)
	}
	k := len(polls) / ticks
	out := make([]float64, ticks)
	for i := range out {
		stop := end
		if i+1 < ticks {
			stop = polls[k*(i+1)]
		}
		out[i] = (stop - polls[k*i]).Seconds()
	}
	return out, nil
}

// driverShare is the share of a run's ticks spent after the shard barrier:
// fleet.Run polls its context at each tick's start and again once the
// shards have reported, so from the second poll to the next tick's first
// the driver's serial merge, control and adaptive passes run alone.
func (r fleetRun) driverShare() (float64, error) {
	n := len(r.ticks)
	if n == 0 || len(r.polls) != 2*n {
		return 0, fmt.Errorf("fleet.Run polled Config.Ctx %d times over %d ticks, not twice per tick", len(r.polls), n)
	}
	var driver, total time.Duration
	for i := 0; i < n; i++ {
		stop := r.wall
		if i+1 < n {
			stop = r.polls[2*i+2]
		}
		driver += stop - r.polls[2*i+1]
		total += stop - r.polls[2*i]
	}
	return driver.Seconds() / total.Seconds(), nil
}

func (r fleetRun) predictionsPerSec() float64 {
	return float64(r.rep.Checkpoints) / r.wall.Seconds()
}

// reportKey is the report's JSON with the echoed shard count blanked: the
// engine's contract is that nothing else depends on the shard count.
func reportKey(rep *fleet.Report) ([]byte, error) {
	c := *rep
	c.Shards = 0
	return c.JSON()
}

// fleetPhase repeats fleet.Run at one shard count until the deadline (at
// least min times), cycling through the jobs.
type fleetPhase struct {
	runs []fleetRun
}

func runFleetPhase(jobs []fleetJob, shards int, clocked bool, deadline time.Time, min int) (fleetPhase, error) {
	var ph fleetPhase
	for len(ph.runs) < min || time.Now().Before(deadline) {
		k := len(ph.runs) % len(jobs)
		r, err := jobs[k].run(shards, clocked)
		if err != nil {
			return ph, err
		}
		r.pop = k
		ph.runs = append(ph.runs, r)
	}
	return ph, nil
}

func (ph fleetPhase) medianPPS() float64 {
	v := make([]float64, len(ph.runs))
	for i, r := range ph.runs {
		v[i] = r.predictionsPerSec()
	}
	return median(v)
}

// check compares every run's report with the reference of its job (refs is
// indexed like the phase's job list) and counts the predictions of each
// mismatching run as failed.
func (ph fleetPhase) check(refs [][]byte, r *report) error {
	for _, run := range ph.runs {
		key, err := reportKey(run.rep)
		if err != nil {
			return err
		}
		r.attempted += run.rep.Checkpoints
		if !bytes.Equal(key, refs[run.pop]) {
			r.failed += run.rep.Checkpoints
			r.note("fleet report at %d shards differs from the 1-shard reference", run.rep.Shards)
		}
	}
	return nil
}

// runFleet is the fleet and fleet-adaptive workload: a batch job of
// repeated fleet.Run calls, in turn on each of the seed's populations, at
// GOMAXPROCS shards.
func runFleet(size fleetSize, adaptive bool, seed uint64, seconds float64, trace bool, r *report) error {
	var (
		job    fleetJob
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if job, err = setupFleet(size, seed, adaptive); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	jobs := make([]fleetJob, populations)
	for k, s := range populationSeeds(seed) {
		jobs[k] = job
		jobs[k].seed = s
	}
	if trace {
		return traceFleet(jobs[0], seconds, r)
	}
	shards := runtime.GOMAXPROCS(0)
	ph, err := runFleetPhase(jobs, shards, true, newBudget(seconds).until(1), minReps)
	if err != nil {
		return err
	}
	// Outside the timed window: each population's 1-shard reference report.
	refs := make([][]byte, len(jobs))
	retrains := make([]int, len(jobs))
	for k, j := range jobs {
		ref, err := j.run(1, false)
		if err != nil {
			return err
		}
		if refs[k], err = reportKey(ref.rep); err != nil {
			return err
		}
		retrains[k] = ref.rep.Retrains
	}
	if err := ph.check(refs, r); err != nil {
		return err
	}

	ticks := make([][]float64, len(ph.runs))
	for i, run := range ph.runs {
		ticks[i] = run.ticks
	}
	p50, n := roundQuantile(ticks, 0.5)
	p99, _ := roundQuantile(ticks, 0.99)
	r.set("setup_s", "s", median(setups))
	r.set("predictions_per_s", "1/s", ph.medianPPS())
	r.set("latency_p50_us", "us", p50*1e6)
	r.set("latency_p99_us", "us", p99*1e6)
	r.set("max_rate_per_s", "1/s", float64(size.Instances)/p99)
	r.samples["latency_p50_us"] = n
	r.samples["latency_p99_us"] = n
	r.samples["predictions_per_s"] = len(ph.runs)
	r.samples["setup_s"] = len(setups)
	r.note("%d instances x %v simulated at %d shards, %d runs over population seeds %v, retrains per population %v",
		size.Instances, size.Duration, shards, len(ph.runs), populationSeeds(seed), retrains)
	return nil
}

// traceFleet is the per-layer run of the fleet workloads: the workload's own
// loop without the tick clock, with it and with metrics off, then the shared
// layer probes on the workload's model and population. The tick clock is
// the benchmark's only hook inside a fleet.Run, so its cost is the trace's.
func traceFleet(job fleetJob, seconds float64, r *report) error {
	b := newBudget(seconds)
	shards := runtime.GOMAXPROCS(0)
	var plain, traced, off fleetPhase
	rep := func(ph *fleetPhase, clocked, metrics bool) func() error {
		return func() error {
			agingpred.SetMetricsEnabled(metrics)
			defer agingpred.SetMetricsEnabled(true)
			run, err := job.run(shards, clocked)
			ph.runs = append(ph.runs, run)
			return err
		}
	}
	if _, err := job.run(shards, false); err != nil { // warm-up, untimed
		return err
	}
	if err := interleave(b.until(0.4), rep(&plain, false, true), rep(&traced, true, true), rep(&off, false, false)); err != nil {
		return err
	}
	setOverheads(r, plain.medianPPS(), traced.medianPPS(), off.medianPPS())
	ref, err := fleetLayers(job, b, r)
	if err != nil {
		return err
	}
	for _, ph := range []fleetPhase{plain, traced, off} {
		if err := ph.check([][]byte{ref}, r); err != nil {
			return err
		}
	}
	return serveLayers(job.model, job.seed, job.size.Instances, job.size.Duration, b, r)
}

// setOverheads derives the two overhead metrics from one workload loop's
// throughput plain, traced and with instrumentation off.
func setOverheads(r *report, plain, traced, off float64) {
	r.set("trace.overhead_pct", "%", 100*(plain-traced)/plain)
	r.set("obs.overhead_pct", "%", 100*(off-plain)/off)
}
