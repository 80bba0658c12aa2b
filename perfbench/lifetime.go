package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"memlife/internal/experiments"
	"memlife/internal/lifetime"
	"memlife/internal/nn"
	"memlife/internal/spec"
)

// fixtureSeed is the run seed of the LeNet-5 fixture every lifetime
// study uses (the repository's default run seed). It is deliberately
// not drawn from the workload seed: the fixture alone moves the Table I
// row's host time by about a quarter (its derived target ranges from
// 0.67 to 0.93 across seeds 1-3), which would drown every regression
// the benchmark is meant to catch. The workload seed draws the
// lifetime seeds instead, the Monte Carlo axis of the paper's study.
const fixtureSeed = 1

// setupSeeds are the fixture seeds trained during set-up. The fixture
// cache keys bundles by seed, so timing set-up several times in one
// process needs distinct seeds; the studies use the first.
var setupSeeds = []int64{fixtureSeed, 2, 3}

// fixture is a trained LeNet-5 bundle (conventional and skewed
// weights) plus the tuning target derived from it.
type fixture struct {
	b      *experiments.Bundle
	target float64
}

// buildFixture trains the fast LeNet-5 fixture for seed and derives
// its tuning target: the set-up work every lifetime study needs.
func buildFixture(seed int64) (*fixture, error) {
	opt := experiments.Options{Fast: true, Seed: seed}
	b, err := experiments.BundleForSpec(experiments.BaseSpec(spec.FixtureLeNet, opt), opt)
	if err != nil {
		return nil, fmt.Errorf("fixture seed %d: %w", seed, err)
	}
	target, err := experiments.ScenarioTarget(b, opt)
	if err != nil {
		return nil, fmt.Errorf("fixture seed %d target: %w", seed, err)
	}
	return &fixture{b: b, target: target}, nil
}

// study is one lifetime simulation: a Table I scenario on one lifetime
// seed, optionally on a burned-in array.
type study struct {
	Scenario lifetime.Scenario
	Seed     int64
	BurnIn   float64
	// MaxCycles, when positive, replaces the fixture spec's budget.
	MaxCycles int
}

// key names the study in the reference table.
func (s study) key() string {
	k := fmt.Sprintf("%s/seed=%d", s.Scenario, s.Seed)
	if s.BurnIn > 0 {
		k += fmt.Sprintf("/burnin=%g", s.BurnIn)
	}
	if s.MaxCycles > 0 {
		k += fmt.Sprintf("/cycles=%d", s.MaxCycles)
	}
	return k
}

// network returns the trained weights the scenario serves: T+T the
// conventionally trained network, ST+* the skewed one.
func (f *fixture) network(sc lifetime.Scenario) *nn.Network {
	if sc == lifetime.TT {
		return f.b.Normal
	}
	return f.b.Skewed
}

// config returns the study's lifetime configuration: the fast fixture
// spec's budget on default arrays, with serial evaluation.
func (f *fixture) config(s study) lifetime.Config {
	cfg := f.b.Spec.LifetimeConfig(f.target)
	cfg.Seed = s.Seed
	cfg.BurnInStress = s.BurnIn
	cfg.Tuning.Workers = 0
	if s.MaxCycles > 0 {
		cfg.MaxCycles = s.MaxCycles
	}
	return cfg
}

// run simulates the study through lifetime.RunCtx, leaving the
// fixture's weights as they were.
func (f *fixture) run(ctx context.Context, s study) (lifetime.Result, error) {
	net := f.network(s.Scenario)
	snap := net.SnapshotParams()
	defer net.RestoreParams(snap)
	sp := f.b.Spec
	return lifetime.RunCtx(ctx, net, f.b.TrainDS, s.Scenario, sp.Device, sp.Aging, sp.TempK, f.config(s))
}

// replay simulates the study through replayStudy with spans on tr.
func (f *fixture) replay(ctx context.Context, tr *tracer, s study) (lifetime.Result, studyCounts, error) {
	net := f.network(s.Scenario)
	snap := net.SnapshotParams()
	defer net.RestoreParams(snap)
	sp := f.b.Spec
	return replayStudy(ctx, tr, net, f.b.TrainDS, s.Scenario, sp.Device, sp.Aging, sp.TempK, f.config(s))
}

// studyRef is the reference outcome of one study: the simulated
// statistics the correctness gate compares, plus a digest of the whole
// lifetime.Result (every cycle record, bit for bit).
type studyRef struct {
	Lifetime  int64   `json:"lifetime"`
	Cycles    int     `json:"cycles"`
	TuneIters []int   `json:"tune_iters"`
	FinalAcc  float64 `json:"final_acc"`
	// Pulses is the tuning pulse count; only a traced replay observes
	// it, so untraced runs leave it out of the comparison.
	Pulses int64  `json:"pulses,omitempty"`
	Digest string `json:"digest"`
}

// refOf summarizes a study result for the reference table.
func refOf(r lifetime.Result, pulses int64) studyRef {
	ref := studyRef{Lifetime: r.Lifetime, Cycles: len(r.Records), FinalAcc: r.FinalAcc, Pulses: pulses}
	for _, rec := range r.Records {
		ref.TuneIters = append(ref.TuneIters, rec.TuneIters)
	}
	// %+v prints every field, floats in their shortest exact form.
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	ref.Digest = hex.EncodeToString(sum[:8])
	return ref
}

// matches reports whether got equals the reference; got.Pulses is
// compared only when both sides carry it.
func (want studyRef) matches(got studyRef) bool {
	if want.Digest != got.Digest || want.Lifetime != got.Lifetime || want.Cycles != got.Cycles || want.FinalAcc != got.FinalAcc {
		return false
	}
	if len(want.TuneIters) != len(got.TuneIters) {
		return false
	}
	for i := range want.TuneIters {
		if want.TuneIters[i] != got.TuneIters[i] {
			return false
		}
	}
	return want.Pulses == 0 || got.Pulses == 0 || want.Pulses == got.Pulses
}
