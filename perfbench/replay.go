package main

import (
	"context"
	"fmt"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/lifetime"
	"memlife/internal/mapping"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/tuning"
)

// Span names of the traced replay. Each wraps one call (or one group
// of calls) into a layer's public entry points.
const (
	spanStudy   = "lifetime/study"
	spanSetup   = "crossbar/setup" // NewMappedNetwork plus aging, burn-in and fault set-up
	spanMap     = "mapping/map"
	spanDrift   = "crossbar/drift" // Drift and StateDrift
	spanTune    = "tuning/tune"
	spanFaults  = "crossbar/faults" // AdvanceFaults and StuckCounts
	spanUpper   = "crossbar/upper"  // MeanUpperBoundByKind
	spanFixture = "train/fixture"
)

// studyCounts are the per-layer work counts of one replayed study.
type studyCounts struct {
	MapCalls   int
	Candidates int
	TuneCalls  int
	TuneIters  int
	TuneEvals  int // iterations + 1 per Tune call: one accuracy evaluation each
	Pulses     int64
	Cycles     int
	Remaps     int
}

func (c *studyCounts) add(o studyCounts) {
	c.MapCalls += o.MapCalls
	c.Candidates += o.Candidates
	c.TuneCalls += o.TuneCalls
	c.TuneIters += o.TuneIters
	c.TuneEvals += o.TuneEvals
	c.Pulses += o.Pulses
	c.Cycles += o.Cycles
	c.Remaps += o.Remaps
}

// replayStudy rebuilds lifetime.RunCtx's deployment-cycle loop from the
// public entry points of the crossbar, mapping and tuning packages,
// with a span around each call. Its Result must be reflect.DeepEqual
// to RunCtx's for the same inputs; the benchmark checks that on every
// traced study, so a change to RunCtx that the replay does not mirror
// shows up as a correctness failure rather than as a silently wrong
// breakdown. Like RunCtx it overwrites net's live weights; the caller
// restores them.
func replayStudy(ctx context.Context, tr *tracer, net *nn.Network, trainDS *dataset.Dataset, sc lifetime.Scenario,
	p device.Params, model aging.Model, tempK float64, cfg lifetime.Config) (lifetime.Result, studyCounts, error) {

	root := tr.begin(spanStudy)
	defer tr.end(root)
	var cnt studyCounts
	res := lifetime.Result{Scenario: sc}
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return res, cnt, err
	}
	if err := ctx.Err(); err != nil {
		return res, cnt, fmt.Errorf("lifetime: %w", err)
	}

	sp := tr.begin(spanSetup)
	mn, err := crossbar.NewMappedNetwork(net, p, model, tempK)
	if err != nil {
		tr.end(sp)
		return res, cnt, err
	}
	if cfg.TraceStride > 0 {
		mn.SetTraceStride(cfg.TraceStride)
	}
	evalDS := trainDS.Subset(cfg.EvalN)
	evalBatch := evalDS.Batches(evalDS.Len(), nil)[0]
	rng := tensor.NewRNG(cfg.Seed)
	if cfg.AgingVariability > 0 {
		mn.RandomizeAging(cfg.AgingVariability, rng.Split())
	}
	if cfg.BurnInStress > 0 {
		mn.AddStress(cfg.BurnInStress)
	}
	if cfg.Faults.Enabled() {
		if err := mn.SetFaults(cfg.Faults); err != nil {
			tr.end(sp)
			return res, cnt, fmt.Errorf("lifetime: %w", err)
		}
	}
	tr.end(sp)

	mapCfg := cfg.Mapping
	mapCfg.Policy = sc.MappingPolicy()
	if cfg.PolicyOverride != nil {
		mapCfg.Policy = *cfg.PolicyOverride
	}
	doMap := func() (mapping.Result, error) {
		sp := tr.begin(spanMap)
		r, err := mapping.Map(mn, mapCfg, evalBatch.X, evalBatch.Y)
		tr.end(sp)
		cnt.MapCalls++
		for _, sel := range r.Selections {
			cnt.Candidates += len(sel.Candidates)
		}
		return r, err
	}
	if _, err := doMap(); err != nil {
		return res, cnt, fmt.Errorf("lifetime: initial mapping: %w", err)
	}

	tune := func(cycle int, target float64) (tuning.Result, error) {
		tc := cfg.Tuning
		tc.TargetAcc = target
		tc.Seed = cfg.Seed + int64(cycle)
		sp := tr.begin(spanTune)
		r, err := tuning.Tune(mn, trainDS, evalBatch.X, evalBatch.Y, tc)
		tr.end(sp)
		cnt.TuneCalls++
		cnt.TuneIters += r.Iterations
		cnt.TuneEvals += r.Iterations + 1
		cnt.Pulses += r.Pulses
		return r, err
	}

	effTarget := cfg.TargetAcc
	floor := cfg.TargetAcc * cfg.DegradedAccFrac
	var apps int64
	for cycle := 1; cycle <= cfg.MaxCycles; cycle++ {
		if err := ctx.Err(); err != nil {
			return res, cnt, fmt.Errorf("lifetime: cycle %d: %w", cycle, err)
		}
		cnt.Cycles++
		sp := tr.begin(spanDrift)
		mn.Drift(cfg.DriftSigma, rng)
		if p.Drift.Enabled() {
			mn.StateDrift(p.Drift.DecayFactor(cycle))
		}
		tr.end(sp)
		tuneRes, err := tune(cycle, effTarget)
		if err != nil {
			return res, cnt, fmt.Errorf("lifetime: cycle %d: %w", cycle, err)
		}
		rec := lifetime.CycleRecord{
			Cycle:     cycle,
			TuneIters: tuneRes.Iterations,
			Converged: tuneRes.Converged,
			Acc:       tuneRes.FinalAcc,
			Retries:   tuneRes.Retries,
		}
		if !tuneRes.Converged || float64(tuneRes.Iterations) >= cfg.RemapIterFrac*float64(cfg.Tuning.MaxIters) {
			rec.Remapped = true
			cnt.Remaps++
			mapRes, err := doMap()
			if err != nil {
				return res, cnt, fmt.Errorf("lifetime: cycle %d remap: %w", cycle, err)
			}
			rec.MapClipped = mapRes.Stats.Clipped
			retry, err := tune(cycle+1_000_000, effTarget)
			if err != nil {
				return res, cnt, fmt.Errorf("lifetime: cycle %d retry: %w", cycle, err)
			}
			rec.TuneIters += retry.Iterations
			rec.Converged = retry.Converged
			rec.Acc = retry.FinalAcc
			rec.Retries += retry.Retries
		}
		sp = tr.begin(spanUpper)
		rec.ConvUpper, rec.FCUpper = mn.MeanUpperBoundByKind()
		tr.end(sp)
		if !rec.Converged && floor > 0 && effTarget > floor && rec.Acc >= floor {
			effTarget = floor
			rec.Converged = true
			rec.Degraded = true
			if res.DegradedAtCycle == 0 {
				res.DegradedAtCycle = cycle
			}
		}
		sp = tr.begin(spanFaults)
		mn.AdvanceFaults()
		lrs, hrs := mn.StuckCounts()
		tr.end(sp)
		rec.Stuck = lrs + hrs
		res.FinalAcc = rec.Acc
		if !rec.Converged {
			rec.Apps = apps
			res.Records = append(res.Records, rec)
			res.Lifetime = apps
			res.Failed = true
			return res, cnt, nil
		}
		if res.DegradedAtCycle != 0 {
			rec.Degraded = true
		}
		apps += cfg.AppsPerCycle
		rec.Apps = apps
		res.Records = append(res.Records, rec)
	}
	res.Lifetime = apps
	return res, cnt, nil
}
