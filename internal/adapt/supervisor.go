package adapt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// Default Supervisor parameters.
const (
	// DefaultMinFreshRuns is how many freshly collected labeled runs must be
	// buffered (since the last retrain started) before a retrain may begin:
	// retraining on exactly the data the stale model was trained on cannot
	// fix anything.
	DefaultMinFreshRuns = 1
	// DefaultMaxBufferedRuns bounds the training buffer; the oldest runs are
	// evicted first, so the buffer tracks the recent regime.
	DefaultMaxBufferedRuns = 32
)

// Config parameterises a Supervisor. The zero value uses the defaults.
type Config struct {
	// Detector tunes drift detection.
	Detector DetectorConfig
	// MinFreshRuns gates retraining on the number of labeled runs collected
	// since the last retrain started (0 = DefaultMinFreshRuns).
	MinFreshRuns int
	// MaxBufferedRuns bounds the training buffer, oldest-first eviction
	// (0 = DefaultMaxBufferedRuns).
	MaxBufferedRuns int
	// Seed pre-populates the training buffer, typically with the runs the
	// initial model was trained on, so a retrain extends the coverage instead
	// of forgetting it. Seed runs do not count as fresh.
	Seed []*monitor.Series
	// WarmupCheckpoints is how many checkpoints after each Stream Reset are
	// excluded from label feedback: while the model's sliding windows are
	// still filling, every model predicts poorly (the paper discusses the
	// 12-checkpoint ≈ 3-minute delay), so scoring those predictions would
	// inflate the drift baseline and the windowed MAE alike. The checkpoints
	// still count toward collected training runs. 0 = the model's own
	// sliding-window length; negative = no warm-up exclusion.
	WarmupCheckpoints int
	// DisableCollection turns off the streams' checkpoint-history collection
	// (on by default, so a crash automatically yields a labeled training run
	// into the buffer), for callers that feed the buffer through AddRun
	// themselves.
	DisableCollection bool
}

func (c Config) withDefaults() Config {
	if c.MinFreshRuns <= 0 {
		c.MinFreshRuns = DefaultMinFreshRuns
	}
	if c.MaxBufferedRuns <= 0 {
		c.MaxBufferedRuns = DefaultMaxBufferedRuns
	}
	return c
}

// Epoch is one published generation of the serving model. Epochs are
// immutable once published; the Supervisor hands out the current one through
// an atomic pointer, so readers never block and never see a half-written
// epoch.
type Epoch struct {
	// Seq numbers the epochs from 1 (the initial model).
	Seq int
	// Model is the epoch's immutable trained model.
	Model *core.Model
	// TrainedRuns is how many buffered runs the epoch was trained on
	// (0 for the initial epoch, whose training data the Supervisor never saw).
	TrainedRuns int
	// FreshRuns is how many of those were collected on-line since the
	// previous epoch.
	FreshRuns int
}

// Stats is a point-in-time snapshot of the Supervisor's adaptation state.
type Stats struct {
	// Epoch is the current epoch sequence number.
	Epoch int
	// Retrains counts completed retraining rounds (published epochs beyond
	// the initial one); Failures counts retraining rounds that errored and
	// left the old epoch serving.
	Retrains int
	Failures int
	// Trips counts detector trips over the supervisor's lifetime; Drifted
	// says whether the detector is tripped right now.
	Trips   int
	Drifted bool
	// BaselineMAESec and WindowMAESec expose the detector's view.
	BaselineMAESec float64
	WindowMAESec   float64
	// BufferedRuns and FreshRuns describe the training buffer.
	BufferedRuns int
	FreshRuns    int
	// RetrainPending is true while a background retrain is in flight.
	RetrainPending bool
}

// retrainJob is one in-flight background retraining round.
type retrainJob struct {
	done  chan struct{}
	model *core.Model
	err   error
	runs  int
	fresh int
}

// Supervisor owns the adaptive-serving loop around one immutable core.Model:
// it tracks on-line prediction error through a drift Detector, accumulates
// completed labeled runs in a bounded training buffer, retrains in the
// background off the serving hot path, and publishes each new model as an
// Epoch via an atomic swap.
//
// Concurrency contract: Current (and the Streams' Observe fast path reading
// it) is lock-free and safe everywhere; every other method takes the
// supervisor mutex and is safe for concurrent use, but none of them is ever
// called on the per-checkpoint hot path — label resolution and retraining
// happen at crash/rejuvenation boundaries. The background worker touches only
// its own job and the immutable snapshot of the buffer it was given.
type Supervisor struct {
	cfg      Config
	trainCfg core.Config

	cur atomic.Pointer[Epoch]

	mu       sync.Mutex
	det      *Detector
	buf      []*monitor.Series
	fresh    int
	pending  *retrainJob
	retrains int
	failures int
	lastErr  error
}

// NewSupervisor wraps an initial trained model as epoch 1. The retraining
// rounds reuse the model's own effective training configuration (family,
// schema, window), so every epoch predicts over the same feature pipeline.
func NewSupervisor(cfg Config, initial *core.Model) (*Supervisor, error) {
	if initial == nil || initial.Schema() == nil {
		return nil, errors.New("adapt: supervisor needs a trained initial model")
	}
	cfg = cfg.withDefaults()
	det, err := NewDetector(cfg.Detector)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{cfg: cfg, trainCfg: initial.Config(), det: det}
	switch {
	case cfg.WarmupCheckpoints < 0:
		s.cfg.WarmupCheckpoints = 0
	case cfg.WarmupCheckpoints == 0:
		s.cfg.WarmupCheckpoints = s.trainCfg.WindowLength
	}
	s.cur.Store(&Epoch{Seq: 1, Model: initial})
	mCurrentEpoch.Set(1)
	for _, run := range cfg.Seed {
		s.addRunLocked(run)
	}
	s.fresh = 0 // seed runs are not fresh evidence of a new regime
	return s, nil
}

// Current returns the currently serving epoch. Lock-free; safe from any
// goroutine.
func (s *Supervisor) Current() *Epoch { return s.cur.Load() }

// Model returns the currently serving model.
func (s *Supervisor) Model() *core.Model { return s.Current().Model }

// AddRun appends one completed labeled run-to-crash execution to the bounded
// training buffer (oldest evicted first) and counts it as fresh evidence.
// Streams with run collection enabled call it automatically on ResolveCrash.
func (s *Supervisor) AddRun(run *monitor.Series) {
	if run == nil || run.Len() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addRunLocked(run)
}

func (s *Supervisor) addRunLocked(run *monitor.Series) {
	if len(s.buf) == s.cfg.MaxBufferedRuns {
		copy(s.buf, s.buf[1:])
		s.buf = s.buf[:len(s.buf)-1]
	}
	s.buf = append(s.buf, run)
	s.fresh++
	mBufferRuns.Set(float64(len(s.buf)))
}

// Runs returns a snapshot of the training buffer, oldest first: the runs the
// next retrain would train on.
func (s *Supervisor) Runs() []*monitor.Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*monitor.Series(nil), s.buf...)
}

// resolveErrors feeds a batch of resolved absolute prediction errors
// (seconds) into the drift detector and reports whether it is tripped
// afterwards.
func (s *Supervisor) resolveErrors(absErrsSec []float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	tripped := s.det.Tripped()
	tripsBefore := s.det.Trips()
	for _, e := range absErrsSec {
		tripped = s.det.Add(e)
	}
	if d := s.det.Trips() - tripsBefore; d > 0 {
		mDriftTrips.Add(uint64(d))
	}
	s.syncDetectorMetrics()
	return tripped
}

// Drifted reports whether the drift detector currently signals that the
// serving model has gone stale.
func (s *Supervisor) Drifted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.det.Tripped()
}

// StartRetrain begins a background retraining round if one is due: the
// detector has tripped, no round is already in flight, and at least
// MinFreshRuns labeled runs arrived since the last round started. It returns
// whether a round was started. The training itself runs on its own goroutine
// against an immutable snapshot of the buffer; the serving hot path is never
// touched. Publish (or TryPublish) installs the result.
func (s *Supervisor) StartRetrain() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil || !s.det.Tripped() || s.fresh < s.cfg.MinFreshRuns || len(s.buf) == 0 {
		return false
	}
	job := &retrainJob{done: make(chan struct{}), runs: len(s.buf), fresh: s.fresh}
	snapshot := append([]*monitor.Series(nil), s.buf...)
	cfg := s.trainCfg
	s.pending = job
	s.fresh = 0
	go func() {
		start := time.Now()
		job.model, job.err = core.Train(cfg, snapshot)
		mRetrainDuration.Observe(time.Since(start).Seconds())
		close(job.done)
	}()
	return true
}

// TryPublish installs the pending retrain's model as a new epoch if the
// background round has finished, without blocking. It reports whether a new
// epoch was published. A failed round is cleared (the old epoch keeps
// serving) and surfaces through Stats.Failures and Err.
func (s *Supervisor) TryPublish() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return false
	}
	select {
	case <-s.pending.done:
		return s.publishLocked()
	default:
		return false
	}
}

// Publish blocks until the pending background retrain finishes and installs
// its model as a new epoch. It reports whether a new epoch was published
// (false when no round is in flight, or the round failed).
func (s *Supervisor) Publish() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return false
	}
	<-s.pending.done
	return s.publishLocked()
}

// publishLocked consumes the finished pending job. Caller holds s.mu and has
// observed job.done.
func (s *Supervisor) publishLocked() bool {
	job := s.pending
	s.pending = nil
	if job.err != nil {
		s.failures++
		s.lastErr = fmt.Errorf("adapt: retraining on %d buffered runs: %w", job.runs, job.err)
		mRetrainFailures.Inc()
		return false
	}
	prev := s.cur.Load()
	s.cur.Store(&Epoch{Seq: prev.Seq + 1, Model: job.model, TrainedRuns: job.runs, FreshRuns: job.fresh})
	s.retrains++
	s.det.Rebaseline() // the new epoch calibrates its own healthy baseline
	mRetrains.Inc()
	mCurrentEpoch.Set(float64(s.cur.Load().Seq))
	s.syncDetectorMetrics()
	return true
}

// PublishModel installs an externally trained model (typically a
// freshly-loaded artifact — the serving daemon's hot reload path) as a new
// epoch, bypassing the retraining pipeline. Live streams adopt it at their
// next Reset like any retrained epoch; the drift detector re-baselines so the
// new model calibrates its own healthy error level. It returns the new epoch
// sequence number.
func (s *Supervisor) PublishModel(m *core.Model) (int, error) {
	if m == nil || m.Schema() == nil {
		return 0, errors.New("adapt: PublishModel needs a trained model")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur.Load()
	next := &Epoch{Seq: prev.Seq + 1, Model: m}
	s.cur.Store(next)
	s.det.Rebaseline()
	mCurrentEpoch.Set(float64(next.Seq))
	s.syncDetectorMetrics()
	return next.Seq, nil
}

// Discard waits for any in-flight background retrain to finish and drops
// its result without publishing. Drivers that shut down mid-round use it so
// no training goroutine outlives them; with nothing in flight it is a
// no-op.
func (s *Supervisor) Discard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return
	}
	<-s.pending.done
	s.pending = nil
}

// Adapt is the synchronous convenience for deterministic drivers (the
// experiment scenarios, simple serving loops): if a retrain is due it runs it
// to completion and publishes the new epoch, returning whether one was
// published.
func (s *Supervisor) Adapt() bool {
	if !s.StartRetrain() {
		return false
	}
	return s.Publish()
}

// Err returns the most recent retraining failure, or nil.
func (s *Supervisor) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Stats snapshots the supervisor's adaptation state.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Epoch:          s.cur.Load().Seq,
		Retrains:       s.retrains,
		Failures:       s.failures,
		Trips:          s.det.Trips(),
		Drifted:        s.det.Tripped(),
		BaselineMAESec: s.det.BaselineSec(),
		WindowMAESec:   s.det.WindowMAESec(),
		BufferedRuns:   len(s.buf),
		FreshRuns:      s.fresh,
		RetrainPending: s.pending != nil,
	}
}
