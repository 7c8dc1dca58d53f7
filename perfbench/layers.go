package main

// The per-layer run (--trace 1). Every layer is timed from the benchmark's
// own code, around calls into the layer's public functions; nothing inside
// the program is instrumented. Each workload measures every layer on its own
// model and population.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"agingpred"
	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/serve"
)

// probeInstances caps the population the serve-layer probes replay on the
// fleet workloads, to keep the pre-generated streams small.
const probeInstances = 32

// censorEvery bounds the component probe's adaptive streams: every 6
// simulated hours each stream's pending labels and collected checkpoints
// are dropped as censored, so healthy instances do not collect a day of
// checkpoints. The sessions are not reset, so the predictions stay those of
// the other passes.
const censorEvery = 6 * 3600 / 15

// fleetLayers measures the fleet engine's layers on one fleet job: fleet.Run
// at GOMAXPROCS shards, with the share of its ticks the driver runs alone,
// and at 1 shard; the components of a tick stepped serially by the
// benchmark; and one supervisor retrain. The engine's residual is the
// shards-1 time per prediction minus the three components, so the four add
// up to it by construction. It returns the 1-shard report, the reference of
// the shard-equality check.
func fleetLayers(job fleetJob, b budget, r *report) ([]byte, error) {
	par, err := runFleetPhase([]fleetJob{job}, runtime.GOMAXPROCS(0), true, b.until(0.1), 1)
	if err != nil {
		return nil, err
	}
	shares := make([]float64, len(par.runs))
	for i, run := range par.runs {
		if shares[i], err = run.driverShare(); err != nil {
			return nil, err
		}
	}
	one, err := runFleetPhase([]fleetJob{job}, 1, false, b.until(0.1), 1)
	if err != nil {
		return nil, err
	}
	ref, err := reportKey(one.runs[0].rep)
	if err != nil {
		return nil, err
	}
	for _, ph := range []fleetPhase{par, one} {
		if err := ph.check([][]byte{ref}, r); err != nil {
			return nil, err
		}
	}
	c, err := componentProbe(job, b.share(0.15), r)
	if err != nil {
		return nil, err
	}
	perPred := 1e9 / one.medianPPS()
	sim, stage, predict := c.per(c.sim, c.steps), c.per(c.stage, c.rows), c.per(c.predict, c.rows)
	r.set("fleet.shard_speedup", "ratio", par.medianPPS()/one.medianPPS())
	r.set("fleet.driver_share", "ratio", median(shares))
	r.set("fleet.sim_step_ns", "ns", sim)
	r.set("features.stage_ns", "ns", stage)
	r.set("m5p.predict_ns", "ns", predict)
	r.set("fleet.engine_ns", "ns", perPred-sim-stage-predict)
	r.set("core.observe_ns", "ns", c.per(c.observe, c.rows))
	r.set("adapt.observe_ns", "ns", c.per(c.adaptObserve, c.rows))
	r.set("adapt.resolve_us", "us", c.per(c.resolve, c.resolves)/1e3)
	r.set("adapt.retrain_s", "s", c.retrain.Seconds())
	r.set("adapt.retrains", "count", float64(par.runs[0].rep.Retrains))
	r.samples["fleet.shard_speedup"] = len(par.runs) + len(one.runs)
	r.note("component probe: %d instance-steps, %d rows, %d crashes resolved; shards-1 %.1f ns per prediction",
		c.steps, c.rows, c.resolves, perPred)
	return ref, nil
}

// components is the component probe's wall time per layer.
type components struct {
	steps, rows, resolves                               int64
	sim, stage, predict, observe, adaptObserve, resolve time.Duration
	retrain                                             time.Duration
}

func (c components) per(d time.Duration, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// population replays a fleet.Specs population tick by tick, restarting a
// crashed instance at once, and keeps a hash of each instance's
// predictions so that passes over the same ticks can be compared.
type population struct {
	replays []*fleet.Replay
	cps     []monitor.Checkpoint
	crashed []bool
	hashes  []uint64
	rows    []int64
}

func newPopulation(seed uint64, specs []fleet.InstanceSpec) *population {
	p := &population{
		replays: make([]*fleet.Replay, len(specs)),
		cps:     make([]monitor.Checkpoint, len(specs)),
		crashed: make([]bool, len(specs)),
		hashes:  make([]uint64, len(specs)),
		rows:    make([]int64, len(specs)),
	}
	for i, spec := range specs {
		p.replays[i] = fleet.NewReplay(seed, spec)
		p.hashes[i] = 14695981039346656037
	}
	return p
}

// step advances every instance one checkpoint interval and returns how
// long the replays took.
func (p *population) step() time.Duration {
	start := time.Now()
	for i, rp := range p.replays {
		p.crashed[i] = rp.Step(&p.cps[i])
	}
	return time.Since(start)
}

// record folds one prediction into instance i's hash.
func (p *population) record(i int, pr core.Prediction) {
	h := p.hashes[i]
	crash := uint64(0)
	if pr.CrashExpected {
		crash = 1
	}
	for _, v := range [3]uint64{math.Float64bits(pr.TimeSec), math.Float64bits(pr.TTFSec), crash} {
		h = (h ^ v) * 1099511628211
	}
	p.hashes[i] = h
	p.rows[i]++
}

// componentProbe times the layers of a fleet tick from outside, over the
// job's population stepped serially by the benchmark, in three passes over
// the same ticks so that each has the working set of its own layer:
//
//  1. fleet.Replay.Step for every instance, core.Batch.Stage for every live
//     one and one core.Batch.Predict, as a fleet shard does;
//  2. core.Session.Observe on every live instance;
//  3. adapt.Stream.Observe on every live instance and
//     adapt.Stream.ResolveCrash per crash, then one supervisor retrain on
//     the runs the streams buffered.
//
// A crashed instance restarts at once. The first pass runs until the
// deadline and at least until one crash; the other two replay the same
// ticks, and every instance's predictions must match the first pass's bit
// for bit: each that differs fails.
func componentProbe(job fleetJob, d time.Duration, r *report) (components, error) {
	var c components
	specs := fleet.Specs(job.seed, job.size.Instances)
	n := len(specs)
	maxTicks := int(job.size.Duration / monitor.DefaultInterval)

	batched := newPopulation(job.seed, specs)
	sessions := make([]*core.Session, n)
	for i := range sessions {
		sessions[i] = job.model.NewSession()
	}
	batch := job.model.NewBatch(n)
	deadline := time.Now().Add(d / 3)
	ticks, crashes := 0, 0
	for ticks < maxTicks && (crashes == 0 || time.Now().Before(deadline)) {
		ticks++
		c.sim += batched.step()
		t0 := time.Now()
		batch.Reset()
		for i := range sessions {
			if !batched.crashed[i] {
				if err := batch.Stage(sessions[i], &batched.cps[i]); err != nil {
					return c, err
				}
			}
		}
		t1 := time.Now()
		preds, err := batch.Predict()
		if err != nil {
			return c, err
		}
		c.stage += t1.Sub(t0)
		c.predict += time.Since(t1)
		k := 0
		for i, rp := range batched.replays {
			if batched.crashed[i] {
				crashes++
				sessions[i].Reset()
				rp.Restart()
				continue
			}
			batched.record(i, preds[k])
			k++
		}
		c.steps += int64(n)
		c.rows += int64(k)
	}

	scalar := newPopulation(job.seed, specs)
	for i := range sessions {
		sessions[i] = job.model.NewSession()
	}
	for t := 0; t < ticks; t++ {
		scalar.step()
		start := time.Now()
		for i, s := range sessions {
			if !scalar.crashed[i] {
				p, err := s.Observe(scalar.cps[i])
				if err != nil {
					return c, err
				}
				scalar.record(i, p)
			}
		}
		c.observe += time.Since(start)
		for i, rp := range scalar.replays {
			if scalar.crashed[i] {
				sessions[i].Reset()
				rp.Restart()
			}
		}
	}

	// A pinned near-zero baseline trips the drift detector on the first
	// resolved crash, so the retrain below is always due.
	sup, err := adapt.NewSupervisor(adapt.Config{
		Seed:     job.seedRuns,
		Detector: adapt.DetectorConfig{Window: 1, Hysteresis: 1, BaselineSec: 1e-9},
	}, job.model)
	if err != nil {
		return c, err
	}
	defer sup.Discard()
	adaptive := newPopulation(job.seed, specs)
	streams := make([]*adapt.Stream, n)
	for i := range streams {
		streams[i] = sup.NewStream(fmt.Sprintf("probe/%d", i))
	}
	for t := 1; t <= ticks; t++ {
		adaptive.step()
		start := time.Now()
		for i, st := range streams {
			if !adaptive.crashed[i] {
				p, err := st.Observe(adaptive.cps[i])
				if err != nil {
					return c, err
				}
				adaptive.record(i, p)
			}
		}
		c.adaptObserve += time.Since(start)
		for i, rp := range adaptive.replays {
			if !adaptive.crashed[i] {
				continue
			}
			start := time.Now()
			streams[i].ResolveCrash(rp.TimeSec())
			c.resolve += time.Since(start)
			c.resolves++
			streams[i].Reset()
			rp.Restart()
		}
		if t%censorEvery == 0 {
			for _, st := range streams {
				st.ResolveCensored()
			}
		}
	}

	for i := range specs {
		r.attempted += scalar.rows[i] + adaptive.rows[i]
		if scalar.hashes[i] != batched.hashes[i] || scalar.rows[i] != batched.rows[i] {
			r.failed += scalar.rows[i]
		}
		if adaptive.hashes[i] != batched.hashes[i] || adaptive.rows[i] != batched.rows[i] {
			r.failed += adaptive.rows[i]
		}
	}
	if c.resolves == 0 {
		return c, fmt.Errorf("component probe saw no crash in %v simulated", job.size.Duration)
	}
	start := time.Now()
	if !sup.StartRetrain() {
		return c, fmt.Errorf("supervisor retrain not due after %d resolved crashes", c.resolves)
	}
	if !sup.Publish() {
		return c, fmt.Errorf("supervisor retrain failed: %v", sup.Err())
	}
	c.retrain = time.Since(start)
	return c, nil
}

// serveLayers measures the serving layers for a fleet workload: a server on
// the workload's model, fed the streams of the first probeInstances
// instances of its population.
func serveLayers(m *core.Model, seed uint64, instances int, d time.Duration, b budget, r *report) error {
	if instances > probeInstances {
		instances = probeInstances
	}
	rig, err := startRig(m, seed, fleet.Specs(seed, instances), d)
	if err != nil {
		return err
	}
	defer rig.close()
	return probeServe(rig, defaultServeSize, b, r)
}

// probeServe measures the serving layers on a running rig: the generator's
// busy share in a traced closed-loop phase, the open-loop sender's lag at
// the latency rate, the round-trip time with one request outstanding, and
// the frame codec.
func probeServe(g *serveRig, size serveSize, b budget, r *report) error {
	traced, err := g.closedLoop(size.Window, b.until(0.08), true)
	if err != nil {
		return err
	}
	account(r, traced)
	open, err := g.openLoop(size.Ladder[0].Rate, b.share(0.06), true)
	if err != nil {
		return err
	}
	account(r, open)
	if err := probeRTT(g, b.until(0.04), r); err != nil {
		return err
	}
	probeCodec(g.streams[0], b.until(0.03), r)
	r.set("client.busy_share", "ratio", traced.busyShare())
	r.set("client.lag_us", "us", open.lag50*1e6)
	r.samples["client.lag_us"] = open.samples
	return nil
}

// probeRTT times serve.Conn Send -> Recv with one request outstanding, on
// a connection of its own, and verifies every reply.
func probeRTT(g *serveRig, deadline time.Time, r *report) error {
	conn, err := serve.Dial(g.srv.TCPAddr(), "")
	if err != nil {
		return err
	}
	defer conn.Close()
	s := g.streams[0]
	var rtts []float64
	for k := 0; k < len(s.cps) && (len(rtts) < 100 || time.Now().Before(deadline)); k++ {
		start := time.Now()
		if err := conn.Send(uint32(k+1), &s.cps[k]); err != nil {
			return err
		}
		p, err := conn.Recv()
		if err != nil {
			return err
		}
		rtts = append(rtts, time.Since(start).Seconds())
		w := s.want[k]
		r.attempted++
		if !matches(serve.Frame{Type: serve.FramePredict, Seq: p.Seq, Epoch: p.Epoch, TimeSec: p.TimeSec, TTFSec: p.TTFSec, CrashExpected: p.CrashExpected}, uint32(k+1), w) {
			r.failed++
		}
		if ctl := s.ctrl[k]; ctl.kind != 0 {
			if err := conn.Resolve(ctl.kind, ctl.crashSec); err != nil {
				return err
			}
			if err := conn.Reset(); err != nil {
				return err
			}
		}
	}
	r.set("serve.rtt_us", "us", quantile(rtts, 0.5)*1e6)
	r.samples["serve.rtt_us"] = len(rtts)
	return nil
}

// probeCodec times serve.AppendFrame and serve.DecodeFrameBody over the
// stream's CHECKPOINT frames and its reference PREDICT frames, and checks
// that each decodes back to what was encoded.
func probeCodec(s *connStream, deadline time.Time, r *report) {
	var (
		buf            []byte
		f, back        serve.Frame
		enc, dec       time.Duration
		frames, failed int64
	)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for k := range s.cps {
			for _, typ := range []serve.FrameType{serve.FrameCheckpoint, serve.FramePredict} {
				if typ == serve.FrameCheckpoint {
					f = serve.Frame{Type: typ, Seq: uint32(k), Vec: *s.cps[k].Vec()}
				} else {
					w := s.want[k]
					f = serve.Frame{Type: typ, Seq: uint32(k), Epoch: refEpoch, TimeSec: w.timeSec, TTFSec: w.ttfSec, CrashExpected: w.crash}
				}
				t0 := time.Now()
				out, err := serve.AppendFrame(buf[:0], &f)
				t1 := time.Now()
				if err == nil {
					err = serve.DecodeFrameBody(out[4:len(out)-4], &back)
				}
				t2 := time.Now()
				buf = out
				enc += t1.Sub(t0)
				dec += t2.Sub(t1)
				frames++
				if err != nil || back != f {
					failed++
				}
			}
		}
	}
	r.attempted += frames
	r.failed += failed
	r.set("serve.encode_ns", "ns", float64(enc.Nanoseconds())/float64(frames))
	r.set("serve.decode_ns", "ns", float64(dec.Nanoseconds())/float64(frames))
}

// traceServe is the serve workload's per-layer run: closed-loop throughput
// plain, traced and with metrics off, the serving-layer probes, and the
// fleet-layer probes on the serve population with the served model.
func traceServe(g *serveRig, size serveSize, seed uint64, seconds float64, r *report) error {
	b := newBudget(seconds)
	var plain, traced, off []float64
	window := func(pps *[]float64, trace, metrics bool) func() error {
		return func() error {
			agingpred.SetMetricsEnabled(metrics)
			defer agingpred.SetMetricsEnabled(true)
			st, err := g.closedLoop(size.Window, b.until(0.03), trace)
			account(r, st)
			*pps = append(*pps, st.perSec())
			return err
		}
	}
	if err := interleave(b.until(0.3), window(&plain, false, true), window(&traced, true, true), window(&off, false, false)); err != nil {
		return err
	}
	setOverheads(r, median(plain), median(traced), median(off))
	if err := probeServe(g, size, b, r); err != nil {
		return err
	}
	series, err := fleet.TrainingSeries(trainingSeed)
	if err != nil {
		return err
	}
	job := fleetJob{size: fleetSize{Instances: size.Instances, Duration: size.Duration}, seed: seed, model: g.model, seedRuns: series}
	_, err = fleetLayers(job, b, r)
	return err
}
