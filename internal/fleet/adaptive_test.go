package fleet

import (
	"bytes"
	"testing"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/features"
	"agingpred/internal/obs"
)

// adaptiveTestConfig builds a small fleet whose drift detector is pinned so
// sensitive (1 s baseline) that the first resolved crash trips it — the
// cheapest deterministic way to force the whole adaptive path (trigger,
// background retrain, epoch publish, epoch adoption at reset) inside a short
// simulated window.
func adaptiveTestConfig(t testing.TB, shards int) Config {
	t.Helper()
	return Config{
		Instances: 16,
		Shards:    shards,
		Duration:  2 * time.Hour,
		Seed:      5,
		Model:     testModel(t),
		Adaptive:  true,
		Adapt: adapt.Config{
			Detector:        adapt.DetectorConfig{BaselineSec: 1, Hysteresis: 1, MinBaselineSec: 1},
			MaxBufferedRuns: 4, // bound the background retrain's cost
		},
		RetrainLatency: 30 * time.Minute,
	}
}

// TestAdaptiveFleetSwapsEpochs drives a fleet across at least one model-epoch
// swap: drift trips on the first resolved crash, a background retrain
// publishes epoch 2 exactly RetrainLatency later, and recovering instances
// adopt it at their reset boundary. Run under -race this is the epoch-swap
// concurrency guard: shard workers keep observing lock-free while the
// background worker trains and the driver swaps the atomic epoch pointer.
func TestAdaptiveFleetSwapsEpochs(t *testing.T) {
	rep, err := Run(adaptiveTestConfig(t, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Adaptive {
		t.Fatalf("report not marked adaptive")
	}
	if rep.Retrains < 1 {
		t.Fatalf("no retrains over %d crashes with a 1 s drift baseline:\n%s", rep.CrashesSuffered, rep)
	}
	if rep.DriftTrips < rep.Retrains {
		t.Fatalf("%d retrains from %d drift trips", rep.Retrains, rep.DriftTrips)
	}
	if len(rep.Epochs) != rep.Retrains+1 {
		t.Fatalf("%d epoch rows for %d retrains", len(rep.Epochs), rep.Retrains)
	}
	var epochCkpts int64
	for i, e := range rep.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("epoch rows out of order: %+v", rep.Epochs)
		}
		if i == 0 && (e.PublishedAtSec != 0 || e.TrainedRuns != 0) {
			t.Fatalf("initial epoch claims a publication: %+v", e)
		}
		if i > 0 && (e.PublishedAtSec <= 0 || e.TrainedRuns == 0 || e.FreshRuns == 0) {
			t.Fatalf("published epoch missing provenance: %+v", e)
		}
		epochCkpts += e.Checkpoints
	}
	if epochCkpts != rep.Checkpoints {
		t.Fatalf("per-epoch checkpoints %d do not add up to the fleet total %d", epochCkpts, rep.Checkpoints)
	}
	// Later epochs must actually have served: the swap is not just recorded,
	// instances adopted the new model.
	if last := rep.Epochs[len(rep.Epochs)-1]; last.Checkpoints == 0 && rep.Retrains > 0 {
		// The very last epoch may publish near the end of the run; at least
		// one post-initial epoch must have served checkpoints.
		served := false
		for _, e := range rep.Epochs[1:] {
			if e.Checkpoints > 0 {
				served = true
			}
		}
		if !served {
			t.Fatalf("no post-swap epoch ever served a checkpoint:\n%s", rep)
		}
	}
	if got := rep.String(); !bytes.Contains([]byte(got), []byte("adaptive serving")) {
		t.Fatalf("String() lost the adaptive block:\n%s", got)
	}
}

// TestAdaptiveFleetDeterministicAcrossShardCounts extends the fleet's core
// determinism guarantee to adaptive serving over the batched prediction
// path: adaptive streams are staged into per-model shard batches (one
// core.Batch per live epoch per shard), the drift trajectory, the retrain
// schedule and the per-epoch stats are pure functions of the seed, and the
// JSON report stays byte-identical across shard counts even though the
// retrains themselves run on background goroutines.
func TestAdaptiveFleetDeterministicAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three adaptive fleets, each retraining in the background")
	}
	run := func(shards int) []byte {
		rep, err := Run(adaptiveTestConfig(t, shards))
		if err != nil {
			t.Fatalf("Run with %d shards: %v", shards, err)
		}
		if rep.Retrains == 0 {
			t.Fatalf("determinism test run swapped no epochs; it would vacuously pass")
		}
		rep.Shards = 0 // the echoed shard count is the only allowed difference
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js
	}
	one := run(1)
	again := run(1)
	four := run(4)
	if !bytes.Equal(one, again) {
		t.Fatalf("two identical adaptive runs differ:\n%s\nvs\n%s", one, again)
	}
	if !bytes.Equal(one, four) {
		t.Fatalf("1-shard and 4-shard adaptive runs differ:\n%s\nvs\n%s", one, four)
	}
}

// TestAdaptiveSerialParallelEquivalence diffs adaptive serving across the
// parallel one-barrier engine and the serial-stepping reference path, and
// across shard counts, report and journal both: epoch swaps land at reset
// boundaries inside the shard workers' tick, and neither the engine nor the
// placement may move a single event. 19 instances split into ranges of
// unequal size at 3, 4 and 7 shards, and into empty ranges at 24 (from 20
// instances on, the default budget of one restart per ten instances
// rejuvenates every instance before it crashes, and no label ever resolves
// to trip the detector). Under
// -race this doubles as the step-in-worker epoch-swap concurrency guard —
// shard workers step and predict while the background worker retrains and
// the driver swaps the epoch pointer.
func TestAdaptiveSerialParallelEquivalence(t *testing.T) {
	run := func(shards int, serial bool) (report, journal []byte) {
		var buf bytes.Buffer
		jnl := obs.NewJournal(&buf)
		cfg := adaptiveTestConfig(t, shards)
		cfg.Instances = 19
		cfg.Journal = jnl
		cfg.serialStep = serial
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run (shards=%d serial=%v): %v", shards, serial, err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatalf("journal close: %v", err)
		}
		if rep.Retrains == 0 {
			t.Fatalf("no epoch swaps; the equivalence check would be vacuous")
		}
		rep.Shards = 0 // the echoed shard count is the only allowed difference
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js, buf.Bytes()
	}
	refRep, refJnl := run(1, false)
	for _, c := range []struct {
		shards int
		serial bool
	}{
		{3, false}, {4, false}, {7, false}, {24, false},
		{1, true}, {3, true}, {24, true},
	} {
		rep, jnl := run(c.shards, c.serial)
		if !bytes.Equal(refRep, rep) {
			t.Errorf("adaptive shards=%d serial=%v report differs from the 1-shard parallel reference:\n%s\nvs\n%s",
				c.shards, c.serial, refRep, rep)
		}
		if !bytes.Equal(refJnl, jnl) {
			t.Errorf("adaptive shards=%d serial=%v journal differs from the 1-shard parallel reference", c.shards, c.serial)
		}
	}
}

// TestAdaptiveConfigValidation pins the unsupported combination.
func TestAdaptiveConfigValidation(t *testing.T) {
	connSchema, err := features.LookupSchema(features.FullConnSchemaName)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Instances:    8,
		Duration:     time.Hour,
		Adaptive:     true,
		ClassSchemas: map[Class]*features.Schema{ClassConnLeak: connSchema},
	})
	if err == nil {
		t.Fatalf("Adaptive + ClassSchemas accepted")
	}
}
