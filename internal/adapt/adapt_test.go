package adapt

import (
	"sync"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// leakSeries builds a deterministic run-to-crash series with linear memory
// and thread growth — the same cheap fixture internal/core's tests use. rate
// scales the leak speed, which is what the regime-change tests vary.
func leakSeries(name string, n int, memPerCP, thrPerCP float64) *monitor.Series {
	s := &monitor.Series{Name: name, IntervalSec: 15, Workload: 100, Crashed: true}
	crash := float64(n) * 15
	s.CrashTimeSec = crash
	for i := 1; i <= n; i++ {
		t := float64(i) * 15
		wob := float64(i%5) - 2
		old := 200 + memPerCP*float64(i)
		threads := 250 + thrPerCP*float64(i) + wob
		tomcat := 500 + memPerCP*float64(i) + 0.5*threads
		s.Checkpoints = append(s.Checkpoints, monitor.Checkpoint{
			TimeSec:         t,
			Throughput:      10 + 0.2*wob,
			Workload:        100,
			ResponseTimeSec: 0.05 + 0.0005*float64(i),
			SystemLoad:      2,
			DiskUsedMB:      12000 + float64(i),
			SwapFreeMB:      2048,
			NumProcesses:    117,
			SystemMemUsedMB: 450 + tomcat,
			TomcatMemUsedMB: tomcat,
			NumThreads:      threads,
			NumHTTPConns:    10,
			NumMySQLConns:   8 + 0.05*float64(i),
			YoungMaxMB:      128,
			OldMaxMB:        832,
			YoungUsedMB:     40 + 4*wob,
			OldUsedMB:       old,
			YoungPct:        (40 + 4*wob) / 128 * 100,
			OldPct:          old / 832 * 100,
			TTFSec:          crash - t,
		})
	}
	return s
}

func initialModel(t testing.TB) (*core.Model, []*monitor.Series) {
	t.Helper()
	train := []*monitor.Series{
		leakSeries("train-a", 300, 2.0, 0.3),
		leakSeries("train-b", 400, 1.5, 0.2),
		leakSeries("train-c", 250, 2.5, 0.5),
	}
	m, err := core.Train(core.Config{}, train)
	if err != nil {
		t.Fatal(err)
	}
	return m, train
}

// TestDetectorCalibratesTripsAndClears walks the detector through its whole
// lifecycle: auto-calibration on the first full window, hysteresis before the
// trip, the trip itself, and the clear once the error falls back under the
// hysteresis band.
func TestDetectorCalibratesTripsAndClears(t *testing.T) {
	d, err := NewDetector(DetectorConfig{Window: 8, Trigger: 2, Clear: 1.25, Hysteresis: 3, MinBaselineSec: 1, CalibrationSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Calibration: first 8 samples at 100 s → baseline 100 s.
	for i := 0; i < 8; i++ {
		if d.Add(100) {
			t.Fatalf("tripped during calibration at sample %d", i)
		}
	}
	if got := d.BaselineSec(); got != 100 {
		t.Fatalf("baseline = %v, want 100", got)
	}
	// Healthy traffic at 150 s (1.5× baseline, under the 2× trigger).
	for i := 0; i < 20; i++ {
		if d.Add(150) {
			t.Fatalf("tripped on healthy errors at sample %d", i)
		}
	}
	// Drift: 400 s errors. The window must first fill past the trigger, then
	// the hysteresis count must run down before the trip.
	trippedAt := -1
	for i := 0; i < 16; i++ {
		if d.Add(400) {
			trippedAt = i
			break
		}
	}
	if trippedAt < 0 {
		t.Fatalf("never tripped on 4× baseline errors")
	}
	if trippedAt < 3 {
		t.Fatalf("tripped after only %d over-trigger samples, hysteresis is 3", trippedAt+1)
	}
	if d.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", d.Trips())
	}
	// Back to healthy: must clear only once the windowed MAE is under
	// 1.25×baseline, and stay tripped meanwhile.
	cleared := false
	for i := 0; i < 64; i++ {
		if !d.Add(100) {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatalf("never cleared after errors returned to baseline")
	}
	if d.Tripped() {
		t.Fatalf("still tripped after clearing")
	}
}

// TestDetectorHysteresisBand pins the flap protection: an error level between
// Clear and Trigger neither trips an armed detector nor clears a tripped one.
func TestDetectorHysteresisBand(t *testing.T) {
	d, err := NewDetector(DetectorConfig{Window: 4, Trigger: 2, Clear: 1.25, Hysteresis: 2, BaselineSec: 100, MinBaselineSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if d.Add(150) { // 1.5× baseline: inside the band
			t.Fatalf("tripped inside the hysteresis band")
		}
	}
	for i := 0; i < 32; i++ {
		d.Add(500)
	}
	if !d.Tripped() {
		t.Fatalf("did not trip on 5× baseline")
	}
	for i := 0; i < 32; i++ {
		if !d.Add(150) { // still inside the band: must not clear
			t.Fatalf("cleared inside the hysteresis band")
		}
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	if _, err := NewDetector(DetectorConfig{Trigger: 1.5, Clear: 1.5}); err == nil {
		t.Fatalf("clear == trigger accepted; the hysteresis band would be empty")
	}
	if _, err := NewDetector(DetectorConfig{BaselineSec: -1}); err == nil {
		t.Fatalf("negative baseline accepted")
	}
}

// TestSupervisorLifecycle drives the whole adaptation loop deterministically:
// a model trained on one regime serves a stream, the regime changes, the
// detector trips on resolved crash labels, a retrain on the collected runs
// publishes epoch 2, and a stream picks the new model up at its next Reset —
// while a pre-existing stream keeps serving epoch 1 until its own Reset.
func TestSupervisorLifecycle(t *testing.T) {
	model, train := initialModel(t)
	sup, err := NewSupervisor(Config{
		Seed: train,
		Detector: DetectorConfig{
			Window: 32, Hysteresis: 2, MinBaselineSec: 1,
			BaselineSec: 30, // pinned small so the shifted regime's errors trip it
		},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	if got := sup.Current().Seq; got != 1 {
		t.Fatalf("initial epoch %d, want 1", got)
	}

	st := sup.NewStream("unit")
	bystander := sup.NewStream("bystander")
	if _, err := bystander.Observe(leakSeries("warm", 1, 2.0, 0.3).Checkpoints[0]); err != nil {
		t.Fatal(err)
	}

	// A regime the initial model never saw: a 4× faster memory leak.
	for sup.Current().Seq == 1 {
		run := leakSeries("shifted", 120, 8.0, 0.3)
		for _, cp := range run.Checkpoints {
			if _, err := st.Observe(cp); err != nil {
				t.Fatal(err)
			}
		}
		// The model's 12-checkpoint warm-up is excluded from label feedback.
		if n, want := st.ResolveCrash(run.CrashTimeSec), run.Len()-12; n != want {
			t.Fatalf("resolved %d predictions, want %d (run length minus warm-up)", n, want)
		}
		st.Reset()
		if sup.Adapt() {
			break
		}
		if stats := sup.Stats(); stats.BufferedRuns > 8 {
			t.Fatalf("no adaptation after %d collected runs (drifted=%v, window MAE %.0f s, baseline %.0f s)",
				stats.BufferedRuns, stats.Drifted, stats.WindowMAESec, stats.BaselineMAESec)
		}
	}

	stats := sup.Stats()
	if stats.Epoch != 2 || stats.Retrains != 1 {
		t.Fatalf("epoch %d, retrains %d after one adaptation", stats.Epoch, stats.Retrains)
	}
	if stats.Trips < 1 {
		t.Fatalf("detector never tripped")
	}
	if sup.Err() != nil {
		t.Fatalf("retraining failed: %v", sup.Err())
	}

	// The stream that Reset after publication serves epoch 2; the bystander
	// stays on epoch 1 until its own Reset boundary.
	st.Reset()
	if st.Epoch() != 2 {
		t.Fatalf("stream still on epoch %d after Reset", st.Epoch())
	}
	if bystander.Epoch() != 1 {
		t.Fatalf("bystander jumped to epoch %d without a Reset", bystander.Epoch())
	}
	bystander.ResolveCensored()
	bystander.Reset()
	if bystander.Epoch() != 2 {
		t.Fatalf("bystander on epoch %d after Reset", bystander.Epoch())
	}

	// The retrained model must actually have learned the new regime: its
	// errors on a fresh shifted run are far below the frozen model's.
	frozen := model.NewSession()
	adapted := sup.Model().NewSession()
	test := leakSeries("shifted-test", 120, 8.0, 0.3)
	var frozenErr, adaptedErr float64
	for _, cp := range test.Checkpoints {
		pf, err := frozen.Observe(cp)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := adapted.Observe(cp)
		if err != nil {
			t.Fatal(err)
		}
		frozenErr += abs(pf.TTFSec - cp.TTFSec)
		adaptedErr += abs(pa.TTFSec - cp.TTFSec)
	}
	if adaptedErr >= frozenErr {
		t.Fatalf("retrained model no better on the new regime: adapted %.0f s vs frozen %.0f s total error",
			adaptedErr, frozenErr)
	}
}

// TestStreamCensoredResolutionDiscards checks a rejuvenated stream feeds
// nothing: no errors reach the detector, no run reaches the buffer.
func TestStreamCensoredResolutionDiscards(t *testing.T) {
	model, _ := initialModel(t)
	sup, err := NewSupervisor(Config{}, model)
	if err != nil {
		t.Fatal(err)
	}
	st := sup.NewStream("censored")
	run := leakSeries("r", 50, 2.0, 0.3)
	for _, cp := range run.Checkpoints {
		if _, err := st.Observe(cp); err != nil {
			t.Fatal(err)
		}
	}
	st.ResolveCensored()
	stats := sup.Stats()
	if stats.BufferedRuns != 0 || stats.FreshRuns != 0 {
		t.Fatalf("censored stream leaked runs into the buffer: %+v", stats)
	}
	if stats.WindowMAESec != 0 && stats.BaselineMAESec != 0 {
		t.Fatalf("censored stream fed the detector: %+v", stats)
	}
}

// TestStreamObserveSteadyStateZeroAllocs pins the hot-path contract: once the
// stream's buffers have grown to the run length, Observe allocates nothing.
func TestStreamObserveSteadyStateZeroAllocs(t *testing.T) {
	model, _ := initialModel(t)
	sup, err := NewSupervisor(Config{}, model)
	if err != nil {
		t.Fatal(err)
	}
	st := sup.NewStream("alloc")
	run := leakSeries("r", 200, 2.0, 0.3)
	for _, cp := range run.Checkpoints {
		if _, err := st.Observe(cp); err != nil {
			t.Fatal(err)
		}
	}
	st.ResolveCrash(run.CrashTimeSec)
	st.Reset()
	// Later runs through the same stream: buffers are warm, so a whole
	// censored run (Observe × 50, censor, Reset) allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			if _, err := st.Observe(run.Checkpoints[i]); err != nil {
				t.Fatal(err)
			}
		}
		st.ResolveCensored()
		st.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Stream.Observe allocates %.1f objects per 50-checkpoint run, want 0", allocs)
	}
}

// TestSupervisorBufferBounded pins the training-buffer bound and its
// oldest-first eviction.
func TestSupervisorBufferBounded(t *testing.T) {
	model, _ := initialModel(t)
	sup, err := NewSupervisor(Config{MaxBufferedRuns: 3}, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sup.AddRun(leakSeries("r", 20+i, 2.0, 0.3))
	}
	if got := sup.Stats().BufferedRuns; got != 3 {
		t.Fatalf("buffer holds %d runs, want the bound 3", got)
	}
	sup.mu.Lock()
	first := sup.buf[0].Len()
	sup.mu.Unlock()
	if first != 20+7 {
		t.Fatalf("oldest surviving run has %d checkpoints, want 27 (oldest-first eviction)", first)
	}
	runs := sup.Runs()
	for i, run := range runs {
		if run.Len() != 27+i {
			t.Fatalf("Runs()[%d] has %d checkpoints, want %d (oldest first)", i, run.Len(), 27+i)
		}
	}
	runs[0] = nil // a snapshot: the buffer is unaffected
	if sup.Runs()[0] == nil {
		t.Fatal("Runs returned the buffer itself, not a snapshot")
	}
}

// TestStartRetrainGates pins the retrain guards: no trip → no retrain; trip
// without fresh runs → no retrain; a second StartRetrain while one is in
// flight → refused.
func TestStartRetrainGates(t *testing.T) {
	model, train := initialModel(t)
	sup, err := NewSupervisor(Config{
		Seed:     train,
		Detector: DetectorConfig{Window: 4, Hysteresis: 1, BaselineSec: 1, MinBaselineSec: 1},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	if sup.StartRetrain() {
		t.Fatalf("retrain started without a drift trip")
	}
	// Trip the detector (baseline pinned at 1 s, any real error is huge).
	sup.resolveErrors([]float64{500, 500, 500, 500, 500})
	if !sup.Drifted() {
		t.Fatalf("detector not tripped")
	}
	if sup.StartRetrain() {
		t.Fatalf("retrain started without fresh runs (seed runs are not fresh)")
	}
	sup.AddRun(leakSeries("fresh", 100, 8.0, 0.3))
	if !sup.StartRetrain() {
		t.Fatalf("retrain refused although drifted with a fresh run")
	}
	if sup.StartRetrain() {
		t.Fatalf("second retrain started while one is in flight")
	}
	if !sup.Publish() {
		t.Fatalf("publish failed: %v", sup.Err())
	}
	if got := sup.Current().Seq; got != 2 {
		t.Fatalf("epoch %d after publish, want 2", got)
	}
}

// TestConcurrentObserveDuringRetrain is the race-detector guard for the
// epoch-swap design: streams keep observing lock-free on the old epoch while
// a background retrain runs and publishes, and pick the new epoch up at their
// next Reset. Run with -race.
func TestConcurrentObserveDuringRetrain(t *testing.T) {
	model, train := initialModel(t)
	sup, err := NewSupervisor(Config{
		Seed:     train,
		Detector: DetectorConfig{Window: 4, Hysteresis: 1, BaselineSec: 1, MinBaselineSec: 1},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	sup.resolveErrors([]float64{500, 500, 500, 500, 500})
	sup.AddRun(leakSeries("fresh", 100, 8.0, 0.3))

	const workers = 4
	run := leakSeries("serve", 200, 2.0, 0.3)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := sup.NewStream("w")
			for pass := 0; pass < 3; pass++ {
				for _, cp := range run.Checkpoints {
					if _, err := st.Observe(cp); err != nil {
						errs[g] = err
						return
					}
				}
				st.ResolveCensored()
				st.Reset()
			}
		}(g)
	}
	if !sup.StartRetrain() {
		t.Fatalf("retrain refused")
	}
	if !sup.Publish() {
		t.Fatalf("publish failed: %v", sup.Err())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.Current().Seq; got != 2 {
		t.Fatalf("epoch %d, want 2", got)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
