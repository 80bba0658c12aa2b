package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"memlife/internal/lifetime"
)

// runLifetime is the untraced run of a lifetime workload. Set-up trains
// the fixture (once per set-up seed; the median is setup_s). The
// measured phase then simulates rounds of the workload's studies
// through lifetime.RunCtx, in one goroutine with serial evaluation,
// for about -seconds (at least one round).
func runLifetime(ctx context.Context, o options, w lifetimeWorkload, refs *refTable, rep *report) error {
	var setups []float64
	var fx *fixture
	for _, s := range setupSeeds {
		t := time.Now()
		f, err := buildFixture(s)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if s == fixtureSeed {
			fx = f
		}
	}
	rep.set("setup_s", median(setups), "s")

	studies := w.studies(o.seed)
	window := newWindow(time.Duration(o.seconds) * time.Second)
	var rounds []float64
	for window.another(rounds) {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		for _, s := range studies {
			rep.attempt(1)
			res, err := fx.run(ctx, s)
			if err != nil {
				rep.fail(fmt.Errorf("study %s: %w", s.key(), err))
			} else if err := refs.checkStudy(s, refOf(res, 0)); err != nil {
				rep.fail(err)
			}
		}
		rounds = append(rounds, time.Since(t).Seconds())
	}
	rep.set("sim_s", median(rounds), "s")
	rep.note("%d round(s) of %d stud(ies) each; lifetime seeds %v", len(rounds), len(studies), lifetimeSeeds(o.seed, w.seedsPerRound))
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB")
	return nil
}

// setHits reports the median of a hit latency distribution, and notes
// its tail: the 99th percentile and the highest percentile with at
// least minTail samples beyond it, with the sample count. The run must
// hold enough samples that minTail lie beyond p99.
func setHits(rep *report, lat *latencies) {
	n := lat.attempted()
	rep.set("hit_p50_ms", lat.at(50)*1e3, "ms")
	p, _ := highestPercentile(n)
	rep.note("hit samples: %d; p99 = %.4g ms (%d beyond); highest percentile with >= %d beyond: p%g = %.4g ms",
		n, lat.at(99)*1e3, beyond(n, 99), minTail, p, lat.at(p)*1e3)
	if beyond(n, 99) < minTail {
		rep.fail(fmt.Errorf("only %d hit samples: fewer than %d beyond p99", n, minTail))
	}
}

// runServe is the untraced serve-mix run.
func runServe(ctx context.Context, o options, refs *refTable, rep *report) error {
	r, err := serveSession(ctx, o.memlife, o.workdir, o.seed, 3, time.Duration(o.seconds)*time.Second, 1000, refs)
	if err != nil {
		return err
	}
	serveE2E(rep, r)
	return nil
}

// serveE2E reports a serve session's end-to-end metrics and folds its
// failures into the report.
func serveE2E(rep *report, r *serveRun) {
	rep.attempt(1 + r.jobLat.attempted() + r.hitLat.attempted())
	for _, e := range r.errs {
		rep.fail(errors.New(e))
	}
	if len(r.jobs) == 0 {
		rep.fail(fmt.Errorf("no fresh job completed in the window"))
	}
	rep.set("setup_s", median(r.setups), "s")
	rep.set("sim_s", r.simS, "s")
	rep.set("job_p50_s", r.jobLat.at(50), "s")
	setHits(rep, &r.hitLat)
	rep.set("peak_rss_mb", r.rssMB, "MB")
	rep.note("fresh jobs: %d (run.seed %v); priming job run.seed %d", r.jobLat.attempted(), jobSeedsOf(r.jobs), r.prime.runSeed)
}

func jobSeedsOf(js []jobSample) []int64 {
	var out []int64
	for _, j := range js {
		out = append(out, j.runSeed)
	}
	return out
}

// pairStats are the figures of a traced run's passes over its studies.
type pairStats struct {
	untraced, traced []float64 // pass wall time, s
	allocMB, gcs     []float64 // per untraced pass
	tracers          []*tracer
	counts           studyCounts // of one traced pass
	coverage         float64     // smallest share of a study covered by layer spans
}

// tracedPairs simulates the studies in alternating untraced
// (lifetime.RunCtx) and traced (replay) passes for about d, with at
// least minPairs pairs. Every replayed result must equal the untraced
// one exactly and match its reference, pulses included.
func tracedPairs(ctx context.Context, fx *fixture, studies []study, d time.Duration, minPairs int, refs *refTable, rep *report) (*pairStats, error) {
	ps := &pairStats{coverage: 1}
	window := newWindow(d)
	var pairs []float64
	for len(pairs) < minPairs || window.another(pairs) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		plain := make([]lifetime.Result, len(studies))
		t := time.Now()
		for i, s := range studies {
			rep.attempt(1)
			var err error
			if plain[i], err = fx.run(ctx, s); err != nil {
				rep.fail(fmt.Errorf("study %s: %w", s.key(), err))
			}
		}
		ps.untraced = append(ps.untraced, time.Since(t).Seconds())
		runtime.ReadMemStats(&ms1)
		ps.allocMB = append(ps.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		ps.gcs = append(ps.gcs, float64(ms1.NumGC-ms0.NumGC))

		tr := newTracer()
		var cnt studyCounts
		t = time.Now()
		for i, s := range studies {
			rep.attempt(1)
			res, c, err := fx.replay(ctx, tr, s)
			if err != nil {
				rep.fail(fmt.Errorf("study %s replay: %w", s.key(), err))
				continue
			}
			cnt.add(c)
			if !reflect.DeepEqual(res, plain[i]) {
				rep.fail(fmt.Errorf("study %s: traced replay differs from lifetime.RunCtx", s.key()))
			}
			if err := refs.checkStudy(s, refOf(res, c.Pulses)); err != nil {
				rep.fail(err)
			}
		}
		ps.traced = append(ps.traced, time.Since(t).Seconds())
		pairs = append(pairs, ps.untraced[len(ps.untraced)-1]+ps.traced[len(ps.traced)-1])
		ps.tracers = append(ps.tracers, tr)
		ps.counts = cnt
		if c := tr.coverage(spanStudy); c < ps.coverage {
			ps.coverage = c
		}
	}
	if ps.coverage < 0.95 {
		rep.fail(fmt.Errorf("layer spans cover only %.1f%% of a study's wall time (want >= 95%%)", 100*ps.coverage))
	}
	return ps, nil
}

// spanMedian returns the median over traced passes of one span's total
// (or self) time, in seconds.
func (ps *pairStats) spanMedian(name string, self bool) float64 {
	var v []float64
	for _, tr := range ps.tracers {
		st := tr.stat(name)
		d := st.Total
		if self {
			d = st.Self
		}
		v = append(v, d.Seconds())
	}
	return median(v)
}

// traceLifetime is the traced run of a lifetime workload.
func traceLifetime(ctx context.Context, o options, w lifetimeWorkload, refs *refTable, rep *report) error {
	t := time.Now()
	fx, err := buildFixture(fixtureSeed)
	if err != nil {
		return err
	}
	fixtureS := time.Since(t).Seconds()
	// The traced pairs cover the studies of the round's first lifetime
	// seed (one Table I row on table1-lenet), which keeps a pair short
	// enough to repeat within the window.
	ps, err := tracedPairs(ctx, fx, w.studies(o.seed)[:len(w.scenarios)], time.Duration(o.seconds)*time.Second, 1, refs, rep)
	if err != nil {
		return err
	}
	// The lifetime workloads bypass the service layer; a short session
	// (one priming job, a few hundred hits) gives its unit costs.
	svc, err := serveSession(ctx, o.memlife, o.workdir, o.seed, 1, 0, 200, refs)
	if err != nil {
		return err
	}
	return layerReport(rep, fx, fixtureS, ps, svc)
}

// traceServe is the traced serve-mix run: the real traffic for the
// server and campaign layers, then an in-process replay of the job's
// simulation on the fast fixture for the layers below.
func traceServe(ctx context.Context, o options, refs *refTable, rep *report) error {
	svc, err := serveSession(ctx, o.memlife, o.workdir, o.seed, 1, time.Duration(o.seconds)*time.Second, 1000, refs)
	if err != nil {
		return err
	}
	t := time.Now()
	fx, err := buildFixture(fixtureSeed)
	if err != nil {
		return err
	}
	fixtureS := time.Since(t).Seconds()
	ps, err := tracedPairs(ctx, fx, []study{serveStudy(o.seed)}, 0, 3, refs, rep)
	if err != nil {
		return err
	}
	return layerReport(rep, fx, fixtureS, ps, svc)
}

// layerReport sets every per-layer metric from a traced run.
func layerReport(rep *report, fx *fixture, fixtureS float64, ps *pairStats, svc *serveRun) error {
	cfg := fx.config(study{})
	uc, err := probeUnits(fx, cfg.EvalN, cfg.Tuning.BatchSize, cfg.Tuning.Normalized().StepFrac)
	if err != nil {
		return err
	}
	rep.attempt(1 + svc.jobLat.attempted() + svc.hitLat.attempted())
	for _, e := range svc.errs {
		rep.fail(errors.New(e))
	}

	rep.set("train.fixture_s", fixtureS, "s")
	for _, g := range []string{"conv1", "conv2", "fc"} {
		rep.set("nn."+g+".fwd_us", uc.fwd[g]*1e6, "us")
	}
	for _, g := range []string{"conv1", "conv2", "fc"} {
		rep.set("nn."+g+".bwd_us", uc.bwd[g]*1e6, "us")
	}
	rep.set("crossbar.accuracy_ms", uc.accuracy*1e3, "ms")
	rep.set("crossbar.refresh_us", uc.refresh*1e6, "us")
	rep.set("crossbar.drift_s", ps.spanMedian(spanDrift, false), "s")
	rep.set("crossbar.pulse_ns", uc.pulse*1e9, "ns")
	c := ps.counts
	rep.set("mapping.map_s", ps.spanMedian(spanMap, false), "s")
	rep.set("mapping.calls", float64(c.MapCalls), "count")
	rep.set("mapping.candidates", float64(c.Candidates), "count")
	rep.set("tuning.tune_s", ps.spanMedian(spanTune, false), "s")
	rep.set("tuning.calls", float64(c.TuneCalls), "count")
	rep.set("tuning.iters", float64(c.TuneIters), "count")
	rep.set("tuning.evals", float64(c.TuneEvals), "count")
	rep.set("tuning.pulses", float64(c.Pulses), "count")
	rep.set("lifetime.cycles", float64(c.Cycles), "count")
	rep.set("lifetime.remaps", float64(c.Remaps), "count")
	rep.set("lifetime.self_s", ps.spanMedian(spanStudy, true), "s")

	jobs := svc.jobs
	if len(jobs) == 0 {
		jobs = []jobSample{svc.prime}
	}
	var submit, wait, runS, post, get []float64
	for _, j := range jobs {
		submit = append(submit, j.submit)
		wait = append(wait, j.queueWait)
		runS = append(runS, j.run)
	}
	for _, h := range svc.hits {
		post = append(post, h.post)
		get = append(get, h.get)
	}
	rep.set("server.submit_ms", median(submit)*1e3, "ms")
	rep.set("server.queue_wait_s", median(wait), "s")
	rep.set("server.run_s", median(runS), "s")
	rep.set("server.hit_post_ms", median(post)*1e3, "ms")
	rep.set("server.result_get_ms", median(get)*1e3, "ms")
	rep.set("campaign.shard_s", svc.shardS, "s")
	rep.set("campaign.fsync_ms", svc.fsyncMS, "ms")

	rep.set("go.alloc_mb", median(ps.allocMB), "MB")
	rep.set("go.gc_cycles", median(ps.gcs), "count")
	untraced, traced := median(ps.untraced), median(ps.traced)
	rep.set("telemetry.overhead_pct", 100*(traced-untraced)/untraced, "%")

	rep.note("traced passes: %d; untraced %.3fs, traced %.3fs per pass; spans cover >= %.2f%% of every study",
		len(ps.traced), untraced, traced, 100*ps.coverage)
	rep.note("pulse probe: %d pulses per tuning-sized step list", uc.stepsProbe)
	last := ps.tracers[len(ps.tracers)-1]
	rep.tables = append(rep.tables, func(w io.Writer) {
		fmt.Fprintln(w, "-- spans of the last traced pass")
		writeSpanTable(w, last.summary())
	})
	return nil
}
