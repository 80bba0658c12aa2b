package crossbar

import (
	"testing"

	"memlife/internal/telemetry"
	"memlife/internal/tensor"
)

// withRegistry installs a fresh global registry for the test and
// removes it afterwards.
func withRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()
	telemetry.SetGlobal(r)
	t.Cleanup(func() { telemetry.SetGlobal(nil) })
	return r
}

// testWeights returns a deterministic [rows, cols] weight matrix.
func testWeights(rows, cols int, seed int64) *tensor.Tensor {
	w := tensor.New(rows, cols)
	rng := tensor.NewRNG(seed)
	for i := range w.Data() {
		w.Data()[i] = rng.Normal(0, 0.5)
	}
	return w
}

func TestTelemetryCacheAndInvalidationCounters(t *testing.T) {
	reg := withRegistry(t)
	cb := newTestCrossbar(t, 6, 5)
	w := testWeights(6, 5, 3)
	cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh)

	dst := tensor.New(6, 5)
	for k := 0; k < 3; k++ {
		if err := cb.ReadWeightsInto(dst); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	count := func(name string) int64 {
		t.Helper()
		v, ok := snap.Counter(name)
		if !ok {
			t.Fatalf("counter %q not in snapshot", name)
		}
		return v
	}
	if got := count("crossbar/cache_misses"); got != 1 {
		t.Fatalf("cache_misses = %d, want 1 (first read builds)", got)
	}
	if got := count("crossbar/cache_hits"); got != 2 {
		t.Fatalf("cache_hits = %d, want 2", got)
	}
	if got := count("crossbar/invalidations/map"); got != 1 {
		t.Fatalf("invalidations/map = %d, want 1", got)
	}
	if got := count("device/pulses_total"); got <= 0 {
		t.Fatalf("pulses_total = %d, want > 0 (mapping programs devices)", got)
	}

	// Each invalidation cause bumps its own counter.
	rng := tensor.NewRNG(1)
	cb.Drift(0.01, rng)
	cb.AddStress(0.5)
	cb.RandomizeAging(0.1, rng)
	if err := cb.SetTempK(310); err != nil {
		t.Fatal(err)
	}
	cb.Device(0, 0)
	snap = reg.Snapshot()
	for _, name := range []string{
		"crossbar/invalidations/drift",
		"crossbar/invalidations/stress",
		"crossbar/invalidations/aging",
		"crossbar/invalidations/tempk",
		"crossbar/invalidations/device_escape",
	} {
		if v, ok := snap.Counter(name); !ok || v != 1 {
			t.Fatalf("%s = %d (present %v), want 1", name, v, ok)
		}
	}
}

func TestTelemetryUsableLevelGauges(t *testing.T) {
	reg := withRegistry(t)
	cb := newTestCrossbar(t, 4, 4)
	w := testWeights(4, 4, 7)
	cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh)

	var mean, min float64
	for _, g := range reg.Snapshot().Gauges {
		switch g.Name {
		case "device/usable_levels_mean":
			mean = g.Value
		case "device/usable_levels_min":
			min = g.Value
		}
	}
	// The gauges capture the windows the mapping clamped against, i.e.
	// the state at mapping entry; the programming pulses themselves then
	// add stress, so a post-map recount can only be equal or lower.
	postMin, postMean := cb.UsableLevelStats()
	if mean <= 0 || min <= 0 || min > mean {
		t.Fatalf("usable gauges implausible: mean %g, min %g", mean, min)
	}
	if postMean > mean || float64(postMin) > min {
		t.Fatalf("post-map usable levels (mean %g, min %d) exceed at-map gauges (mean %g, min %g)",
			postMean, postMin, mean, min)
	}
}

// TestTelemetryDoesNotPerturbResults drives two identical crossbars —
// one with telemetry installed, one without — through map, drift, tune
// pulses and reads, and requires bit-identical outputs: instruments
// observe the simulation, never steer it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	drive := func() []float64 {
		cb := newTestCrossbar(t, 6, 5)
		w := testWeights(6, 5, 11)
		cb.MapWeights(w, cb.params.RminFresh, cb.params.RmaxFresh)
		rng := tensor.NewRNG(42)
		cb.Drift(0.02, rng)
		cb.StepDevice(1, 2, +1)
		cb.StepDevice(3, 4, -1)
		return mustEff(t, cb).Data()
	}

	telemetry.SetGlobal(nil)
	plain := drive()
	telemetry.SetGlobal(telemetry.NewRegistry())
	defer telemetry.SetGlobal(nil)
	instrumented := drive()

	if len(plain) != len(instrumented) {
		t.Fatalf("output sizes differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("output %d differs with telemetry on: %g vs %g", i, plain[i], instrumented[i])
		}
	}
}
