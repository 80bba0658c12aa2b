package main

import (
	"fmt"
	"math/rand"

	"memlife/internal/lifetime"
	"memlife/internal/spec"
)

// The benchmark draws every input from --seed through the functions in
// this file, so the same seed always gives the same inputs. Inputs come
// from fixed pools, and the committed reference table (refs.json)
// covers every pool entry: whatever the seed, each simulated output is
// checked exactly against a reference.
const (
	// lifetimeSeedPool is the number of lifetime seeds (1..N) studies
	// draw from.
	lifetimeSeedPool = 24
	// jobSeedBase and jobSeedPool give the run.seed values of the
	// serve-mix job specs: jobSeedBase+1 .. jobSeedBase+jobSeedPool.
	jobSeedBase = 1000
	jobSeedPool = 48
	// jobSeeds is the seed count of every serve-mix job.
	jobSeeds = 2
	// serveStudyCycles is the lifetime budget of a serve-mix job
	// (max_cycles of the job spec), used by its in-process replay.
	serveStudyCycles = 2
)

// mix is SplitMix64: it spreads a seed and a salt into a well-mixed
// 64-bit value, so different inputs drawn from one seed are unrelated.
func mix(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lifetimeSeeds returns k consecutive lifetime seeds from the pool,
// starting at a position drawn from seed.
func lifetimeSeeds(seed int64, k int) []int64 {
	start := mix(seed, 1) % lifetimeSeedPool
	out := make([]int64, k)
	for i := range out {
		out[i] = 1 + int64((start+uint64(i))%lifetimeSeedPool)
	}
	return out
}

// jobRunSeeds returns every job run.seed of the pool in an order drawn
// from seed. The first is the priming job (the spec connection B
// re-submits); the rest are connection A's fresh jobs, each used once.
func jobRunSeeds(seed int64) []int64 {
	perm := rand.New(rand.NewSource(int64(mix(seed, 2) >> 1))).Perm(jobSeedPool)
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = jobSeedBase + 1 + int64(p)
	}
	return out
}

// jobSpec returns the scenario document of a serve-mix job: the
// shape of the repository's serve-smoke scenario (fast LeNet-5 fixture,
// ST+AT, a two-cycle lifetime) with the given run seed.
func jobSpec(runSeed int64) []byte {
	return []byte(fmt.Sprintf(`{"version":%d,"name":"perfbench-job","fixture":{"name":"lenet"},"scenario":"ST+AT",`+
		`"run":{"fast":true,"seed":%d},"lifetime":{"max_cycles":%d,"eval_n":64}}`, spec.Version, runSeed, serveStudyCycles))
}

// lifetimeWorkload describes one of the in-process lifetime workloads.
type lifetimeWorkload struct {
	scenarios []lifetime.Scenario
	// seedsPerRound is how many lifetime seeds one round simulates for
	// every scenario.
	seedsPerRound int
	burnIn        float64
}

var (
	table1Lenet = lifetimeWorkload{
		scenarios:     []lifetime.Scenario{lifetime.TT, lifetime.STT, lifetime.STAT},
		seedsPerRound: 4,
	}
	agedRemap = lifetimeWorkload{
		scenarios:     []lifetime.Scenario{lifetime.STAT},
		seedsPerRound: 3,
		burnIn:        3,
	}
)

// studies returns the studies of one round for the workload seed.
func (w lifetimeWorkload) studies(seed int64) []study {
	var out []study
	for _, ls := range lifetimeSeeds(seed, w.seedsPerRound) {
		for _, sc := range w.scenarios {
			out = append(out, study{Scenario: sc, Seed: ls, BurnIn: w.burnIn})
		}
	}
	return out
}

// serveStudy is the in-process counterpart of a serve-mix job's
// simulation, which the traced serve-mix run replays for its layer
// breakdown: ST+AT with the job spec's two-cycle budget.
func serveStudy(seed int64) study {
	return study{Scenario: lifetime.STAT, Seed: lifetimeSeeds(seed, 1)[0], MaxCycles: serveStudyCycles}
}
