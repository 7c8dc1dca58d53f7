package fleet

import (
	"context"
	"sync"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// observer is what the prediction layer drives per instance: the underlying
// core.Session to stage into its shard's batch, plus a Record hook invoked
// with the issued prediction. A frozen fleet wraps plain core.Sessions
// (Record is a no-op); an adaptive fleet serves adapt.Streams, whose Record
// remembers the prediction for later label resolution. Either way the
// observer is touched only by its instance's shard worker.
type observer interface {
	Session() *core.Session
	Record(cp *monitor.Checkpoint, pred core.Prediction)
}

// sessionObserver adapts a plain frozen-model session to the observer
// interface; staging plus the (empty) Record is exactly Session.Observe.
type sessionObserver struct{ s *core.Session }

func (o sessionObserver) Session() *core.Session                      { return o.s }
func (o sessionObserver) Record(*monitor.Checkpoint, core.Prediction) {}

// resultKind is the outcome a shard worker reports for one instance's tick.
type resultKind uint8

const (
	// resDown: the instance was down the whole interval; flow carries the
	// traffic its users kept offering (all lost).
	resDown resultKind = iota
	// resServed: the instance served the interval and was staged for
	// prediction; flow carries the requests it served, ttfSec/err the
	// prediction outcome.
	resServed
	// resCrashed: the instance ran a resource dry during the interval; flow
	// carries the offered (lost) traffic. The driver turns this into
	// controller/journal crash bookkeeping after the barrier.
	resCrashed
)

// obsResult is one worker's answer for one instance, written into the pool's
// result slot and merged by the driver after the tick barrier.
type obsResult struct {
	ttfSec float64
	flow   float64 // served requests (resServed) or lost requests (resDown/resCrashed)
	err    error
	kind   resultKind
}

// modelBatch is one shard worker's reusable prediction batch for one distinct
// model. A worker keeps one per model its instances currently serve — usually
// exactly one; a few under per-class schemas or adaptive epochs — found by
// linear scan. A batch whose model went idle this tick is evicted unless some
// session of the shard still serves that model (a down instance may come back
// from an outage still on a retired epoch); without the eviction a long
// adaptive run would scan every epoch it ever served, every instance, every
// tick.
type modelBatch struct {
	m   *core.Model
	b   *core.Batch
	ids []int // instance IDs staged this tick, in staging order
}

// pool is the sharded simulation-and-prediction engine: shard s of S owns
// the contiguous instance-ID range [s·n/S, (s+1)·n/S), each shard is one
// worker goroutine, and each instance's simulator state and session are
// touched only by its own shard — so no locks are needed around any
// per-instance mutable state. Contiguous ranges keep the shards off each
// other's cache lines: the per-instance slot arrays (cps, results) and the
// instance, session and window objects Run allocates in ID order are each
// written by one core, except for the one line straddling each range
// boundary. Any interleaved placement has two cores writing the same lines
// every tick (false sharing), which made each shard ~40 % slower in
// parallel than alone.
//
// The unit of dispatch is a whole shard tick: the driver publishes the
// tick's clock (tSec/dtSec) and wakes each worker once (flush). A worker
// walks its shard's instances in ascending ID order, steps each live
// instance's simulator straight into the per-instance checkpoint slot,
// stages the survivors back to back into per-model core.Batch evaluations,
// sweeps the flattened regressors over the contiguous batches, records the
// predictions, writes one result slot per instance, and hits the tick
// barrier. One channel send and one WaitGroup count per shard per tick is
// all the synchronisation there is.
//
// Determinism: every instance draws from its own named RNG stream, so the
// trajectory each worker computes is independent of which shard steps it and
// of the order shards run in. All cross-instance state — report aggregates,
// controller, journal — is folded by the driver after the barrier in
// instance-ID order, which is exactly the retained serial reference order
// (serial mode below).
//
// Memory ordering: the flush sends publish the driver's tSec/dtSec and
// down-flag writes to the workers, and the tick WaitGroup orders the
// workers' result and Record writes before the driver's reads in wait.
type pool struct {
	sessions  []observer
	instances []*instance
	// down mirrors the controller's per-instance availability; only the
	// driver writes it (between barriers), workers read it at step time.
	down    []bool
	cps     []monitor.Checkpoint // per-instance checkpoint slot for the tick
	results []obsResult
	bounds  []int // shard s owns instance IDs [bounds[s], bounds[s+1])
	batches [][]*modelBatch
	staged  []int // per-shard count of staged instances this tick

	// tick parameters, written by the driver before flush.
	tSec, dtSec float64

	// serial selects the retained serial-stepping reference path: no worker
	// goroutines; flush runs every shard tick inline on the caller's
	// goroutine. Bit-identical to the parallel engine by construction — the
	// determinism tests diff the two.
	serial  bool
	work    []chan struct{} // per-shard tick signal
	tick    sync.WaitGroup  // per-tick barrier: one count per signalled shard
	workers sync.WaitGroup  // worker lifetime, for close
}

// newPool splits the instance IDs into one contiguous range per shard and
// starts one worker per shard (none in serial mode). sessions[i] is instance
// i's private per-stream state, instances[i] its private simulator state;
// results has one slot per instance.
func newPool(shards int, sessions []observer, instances []*instance, serial bool) *pool {
	p := &pool{
		sessions:  sessions,
		instances: instances,
		down:      make([]bool, len(sessions)),
		cps:       make([]monitor.Checkpoint, len(sessions)),
		results:   make([]obsResult, len(sessions)),
		bounds:    make([]int, shards+1),
		batches:   make([][]*modelBatch, shards),
		staged:    make([]int, shards),
		serial:    serial,
	}
	// Sizes differ by at most one; with more shards than instances some
	// ranges are empty. Placement never matters for results (independent
	// RNG streams, ID-order merge), only for which core writes which line.
	for s := range p.bounds {
		p.bounds[s] = s * len(sessions) / shards
	}
	if serial {
		return p
	}
	p.work = make([]chan struct{}, shards)
	for s := range p.work {
		ch := make(chan struct{}, 1)
		p.work[s] = ch
		p.workers.Add(1)
		go p.worker(s, ch)
	}
	return p
}

// worker serves one shard: one full shard tick per signal, then the barrier.
func (p *pool) worker(s int, ch <-chan struct{}) {
	defer p.workers.Done()
	for range ch {
		p.shardTick(s)
		p.tick.Done()
	}
}

// shardTick runs one shard's whole tick: step every owned instance, stage
// the live ones per model, predict in batch, record, and report per-instance
// outcomes into the result slots. Touches only shard-owned state (plus the
// driver-published tick clock and down flags), so it is equally correct on a
// worker goroutine or inline in serial mode.
func (p *pool) shardTick(s int) {
	t, dt := p.tSec, p.dtSec
	batches := p.batches[s]
	for _, mb := range batches {
		mb.b.Reset()
		mb.ids = mb.ids[:0]
	}
	// Local slice headers: the step/Stage calls below take &cps[id], so
	// without these the compiler must conservatively reload every p field
	// after each call.
	instances, down, cps, results := p.instances, p.down, p.cps, p.results
	lo, hi := p.bounds[s], p.bounds[s+1]
	staged := 0
	for id := lo; id < hi; id++ {
		in := instances[id]
		if down[id] {
			// Down the whole interval: its users keep offering traffic that
			// is all lost; nothing is staged.
			results[id] = obsResult{kind: resDown, flow: in.expectedThroughput(t) * dt}
			continue
		}
		// Step straight into the instance's pool slot: the 160-byte
		// checkpoint is written once and never copied again.
		if in.step(t, dt, &cps[id]) {
			results[id] = obsResult{kind: resCrashed, flow: in.expectedThroughput(t) * dt}
			continue
		}
		sess := p.sessions[id].Session()
		m := sess.Model()
		var mb *modelBatch
		for _, c := range batches {
			if c.m == m {
				mb = c
				break
			}
		}
		if mb == nil {
			mb = &modelBatch{m: m, b: m.NewBatch(hi - lo)}
			batches = append(batches, mb)
		}
		if err := mb.b.Stage(sess, &cps[id]); err != nil {
			results[id] = obsResult{kind: resServed, err: err}
			continue
		}
		mb.ids = append(mb.ids, id)
		results[id] = obsResult{kind: resServed, flow: cps[id].Throughput * dt}
		staged++
	}
	// Predict per model, and evict batches that went idle: a batch with no
	// staged instance this tick is kept only while some session of the shard
	// still serves its model (the sessions of down instances included — they
	// resume on their old epoch if no reset intervenes).
	live := batches[:0]
	for _, mb := range batches {
		if len(mb.ids) == 0 {
			if p.shardServesModel(s, mb.m) {
				live = append(live, mb)
			}
			continue
		}
		live = append(live, mb)
		mBatchSize.Observe(float64(len(mb.ids)))
		preds, err := mb.b.Predict()
		if err != nil {
			for _, id := range mb.ids {
				p.results[id].err = err
			}
			continue
		}
		for k, id := range mb.ids {
			pred := preds[k]
			p.sessions[id].Record(&p.cps[id], pred)
			p.results[id].ttfSec = pred.TTFSec
		}
	}
	p.batches[s] = live
	p.staged[s] = staged
}

// shardServesModel reports whether any session of shard s currently serves
// model m. Only reached for idle batches (an epoch retiring), so the linear
// walk is off the steady-state path.
func (p *pool) shardServesModel(s int, m *core.Model) bool {
	for id := p.bounds[s]; id < p.bounds[s+1]; id++ {
		if p.sessions[id].Session().Model() == m {
			return true
		}
	}
	return false
}

// flush hands the tick to the workers, one signal per shard; the driver must
// have written tSec/dtSec (and any down-flag updates) before calling. It
// returns false if ctx is cancelled before every shard was signalled (the
// barrier stays consistent — call wait regardless); a nil ctx never cancels.
// In serial mode it runs every shard tick inline and never cancels mid-tick.
func (p *pool) flush(ctx context.Context) bool {
	if p.serial {
		for s := range p.batches {
			p.shardTick(s)
		}
		return true
	}
	for _, ch := range p.work {
		p.tick.Add(1)
		if ctx == nil {
			ch <- struct{}{}
			continue
		}
		select {
		case ch <- struct{}{}:
		case <-ctx.Done():
			p.tick.Done()
			return false
		}
	}
	return true
}

// wait blocks until every signalled shard has finished its tick.
func (p *pool) wait() {
	if p.serial {
		return
	}
	p.tick.Wait()
}

// close shuts the tick channels down and waits for the workers to exit.
// Call only after wait (no tick in flight).
func (p *pool) close() {
	if p.serial {
		return
	}
	for _, ch := range p.work {
		close(ch)
	}
	p.workers.Wait()
}
