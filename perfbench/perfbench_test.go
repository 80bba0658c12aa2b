package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"memlife/internal/dataset"
	"memlife/internal/experiments"
	"memlife/internal/lifetime"
	"memlife/internal/nn"
	"memlife/internal/spec"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1.5, 2.5, 10, 7, 3.25, 8, 9.5}, 2.5, 7, 9.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // p99.9 leaves only 9
		{1000, 99, true},    // exactly 10 beyond p99
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g,%v, want %g,%v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}

func TestMissesCountBeyondEveryPercentile(t *testing.T) {
	var l latencies
	for i := 0; i < 990; i++ {
		l.record(0.001, nil)
	}
	for i := 0; i < 10; i++ {
		l.record(0.5, http.ErrHandlerTimeout)
	}
	if l.attempted() != 1000 || l.misses != 10 {
		t.Fatalf("attempted=%d misses=%d, want 1000 and 10", l.attempted(), l.misses)
	}
	if got := l.at(50); got != 0.001 {
		t.Errorf("p50 = %g, want 0.001", got)
	}
	if got := l.at(99); got != 0.001 {
		t.Errorf("p99 = %g, want 0.001 (exactly 10 misses lie beyond it)", got)
	}
	l.record(0, http.ErrHandlerTimeout)
	if got := l.at(99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11 misses in 1001 = %g, want +Inf", got)
	}
}

// fakeDaemon answers the job API with fixed statuses.
func fakeDaemon(t *testing.T, submitStatus int, body string) *client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(submitStatus)
			w.Write([]byte(body))
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			w.Write([]byte(`{"id":"j","state":"failed","error":"boom"}`))
		case strings.HasPrefix(r.URL.Path, "/v1/results/"):
			w.Write([]byte("doc\n"))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	c := newClient(srv.URL)
	t.Cleanup(c.close)
	return c
}

func TestRefusedOrFailedRequestsAreMisses(t *testing.T) {
	ctx := context.Background()
	var hits, jobs latencies

	refused := fakeDaemon(t, http.StatusTooManyRequests, `{"error":"job queue is full"}`)
	h, err := hit(refused, jobSpec(1001), []byte("doc\n"))
	hits.record(h.post+h.get, err)
	if err == nil {
		t.Error("a 429 on a hit submission was not an error")
	}
	s, err := runJob(ctx, refused, 1001)
	jobs.record(s.total, err)
	if err == nil {
		t.Error("a 429 on a fresh submission was not an error")
	}

	// A cache hit whose document differs from the stored one is a miss.
	stale := fakeDaemon(t, http.StatusOK, `{"id":"j","state":"done","cached":true}`)
	h, err = hit(stale, jobSpec(1001), []byte("other\n"))
	hits.record(h.post+h.get, err)
	if err == nil {
		t.Error("a hit with a different document was not an error")
	}

	// A fresh job that the daemon reports failed is a miss.
	failing := fakeDaemon(t, http.StatusAccepted, `{"id":"j","state":"queued"}`)
	s, err = runJob(ctx, failing, 1002)
	jobs.record(s.total, err)
	if err == nil {
		t.Error("a failed job was not an error")
	}

	if hits.misses != 2 || jobs.misses != 2 {
		t.Fatalf("hit misses=%d job misses=%d, want 2 and 2", hits.misses, jobs.misses)
	}
	if !math.IsInf(hits.at(50), 1) || !math.IsInf(jobs.at(50), 1) {
		t.Error("misses did not count as infinitely slow samples")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		if !reflect.DeepEqual(lifetimeSeeds(seed, 3), lifetimeSeeds(seed, 3)) ||
			!reflect.DeepEqual(jobRunSeeds(seed), jobRunSeeds(seed)) ||
			!reflect.DeepEqual(table1Lenet.studies(seed), table1Lenet.studies(seed)) ||
			!reflect.DeepEqual(agedRemap.studies(seed), agedRemap.studies(seed)) {
			t.Errorf("seed %d: inputs differ between two derivations", seed)
		}
		for _, ls := range lifetimeSeeds(seed, 3) {
			if ls < 1 || ls > lifetimeSeedPool {
				t.Errorf("seed %d: lifetime seed %d outside the referenced pool", seed, ls)
			}
		}
		js := jobRunSeeds(seed)
		seen := map[int64]bool{}
		for _, s := range js {
			if s <= jobSeedBase || s > jobSeedBase+jobSeedPool || seen[s] {
				t.Errorf("seed %d: job run.seed %d outside the pool or repeated", seed, s)
			}
			seen[s] = true
		}
		if len(js) != jobSeedPool {
			t.Errorf("seed %d: %d job seeds, want %d", seed, len(js), jobSeedPool)
		}
	}
	if reflect.DeepEqual(jobRunSeeds(1), jobRunSeeds(2)) {
		t.Error("seeds 1 and 2 give the same job order")
	}
	s, err := spec.ResolveBytes(jobSpec(1007), spec.Overrides{})
	if err != nil {
		t.Fatalf("job spec does not resolve: %v", err)
	}
	if s.Run.Seed != 1007 || s.Lifetime.MaxCycles != serveStudyCycles || !s.Run.Fast {
		t.Errorf("job spec resolved to seed=%d max_cycles=%d fast=%v", s.Run.Seed, s.Lifetime.MaxCycles, s.Run.Fast)
	}
}

func TestReferencesCoverEverySeed(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 64; seed++ {
		for _, s := range append(append(table1Lenet.studies(seed), agedRemap.studies(seed)...), serveStudy(seed)) {
			if _, ok := refs.Studies[s.key()]; !ok {
				t.Errorf("seed %d: no reference for study %s", seed, s.key())
			}
		}
	}
	for _, rs := range jobRunSeeds(0) {
		if err := refs.checkJob(rs, nil); err != nil && strings.Contains(err.Error(), "no reference") {
			t.Errorf("job run.seed=%d: no reference", rs)
		}
	}
}

// tinyFixture trains a small LeNet-5 for one epoch: enough for a
// lifetime study of a few cycles that converges, remaps and dies.
func tinyFixture(t *testing.T) *fixture {
	t.Helper()
	trainDS, testDS, err := dataset.Generate(dataset.SynthConfig{Classes: 4, TrainN: 64, TestN: 16, C: 1, H: 12, W: 12, Noise: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *nn.Network {
		net, err := nn.NewLeNet5(nn.LeNetConfig{InC: 1, H: 12, W: 12, Classes: 4}, tensor.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.Train(net, trainDS, testDS, train.Config{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return net
	}
	s := spec.Defaults(spec.FixtureLeNet, true)
	s.Lifetime.MaxCycles = 5
	s.Lifetime.EvalN = 16
	s.Lifetime.Tuning.MaxIters = 6
	s.Lifetime.Tuning.BatchSize = 16
	b := &experiments.Bundle{TrainDS: trainDS, TestDS: testDS, Normal: build(), Skewed: build(), Spec: s}
	target, err := lifetime.SuggestTarget(b.Normal, trainDS, s.Device, s.Aging, s.TempK, 16, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{b: b, target: target}
}

func TestReplayEqualsRunCtx(t *testing.T) {
	fx := tinyFixture(t)
	ctx := context.Background()
	studies := []study{
		{Scenario: lifetime.TT, Seed: 1},
		{Scenario: lifetime.STT, Seed: 2},
		{Scenario: lifetime.STAT, Seed: 3},
		{Scenario: lifetime.STAT, Seed: 4, BurnIn: 3},
	}
	tr := newTracer()
	for _, s := range studies {
		want, err := fx.run(ctx, s)
		if err != nil {
			t.Fatalf("%s: %v", s.key(), err)
		}
		got, cnt, err := fx.replay(ctx, tr, s)
		if err != nil {
			t.Fatalf("%s replay: %v", s.key(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay\n%+v\ndiffers from RunCtx\n%+v", s.key(), got, want)
		}
		if cnt.Cycles != len(want.Records) || cnt.TuneCalls < cnt.Cycles || cnt.MapCalls != 1+cnt.Remaps {
			t.Errorf("%s: counts %+v inconsistent with %d cycles", s.key(), cnt, len(want.Records))
		}
		if untraced, _, err := fx.replay(ctx, nil, s); err != nil || !reflect.DeepEqual(untraced, want) {
			t.Errorf("%s: replay without a tracer differs (err %v)", s.key(), err)
		}
	}
	if got := tr.stat(spanStudy).Calls; got != len(studies) {
		t.Errorf("%d study spans, want %d", got, len(studies))
	}
	if tr.stat(spanTune).Calls == 0 || tr.stat(spanMap).Calls < len(studies) {
		t.Error("replay recorded no tuning or mapping spans")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	child := tr.begin("child")
	time.Sleep(20 * time.Millisecond)
	tr.end(child)
	time.Sleep(5 * time.Millisecond)
	tr.end(root)
	r, c := tr.stat("root"), tr.stat("child")
	if r.Calls != 1 || c.Calls != 1 {
		t.Fatalf("calls root=%d child=%d", r.Calls, c.Calls)
	}
	if r.Self != r.Total-c.Total || c.Self != c.Total {
		t.Errorf("self times root=%v child=%v with totals %v %v", r.Self, c.Self, r.Total, c.Total)
	}
	if cov := tr.coverage("root"); cov <= 0 || cov >= 1 {
		t.Errorf("coverage %g, want strictly between 0 and 1", cov)
	}
	var none *tracer
	none.end(none.begin("x")) // a nil tracer records nothing and does not panic
}

func TestRefsFileIsCanonical(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshalRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	var back refTable
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("marshalRefs output does not parse: %v", err)
	}
	if !reflect.DeepEqual(&back, refs) {
		t.Error("marshalRefs does not round-trip the table")
	}
}
