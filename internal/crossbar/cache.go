package crossbar

import (
	"errors"
	"fmt"

	"memlife/internal/tensor"
)

// ErrNotMapped is returned by the read path (ReadWeightsInto,
// EffectiveWeightsNaive) when the array has never been programmed with
// MapWeights: there is no mapping range, so resistances cannot be
// interpreted as weights.
var ErrNotMapped = errors.New("crossbar: read before MapWeights")

// The cached read path.
//
// ReadWeightsInto is the one way to read the array. It is served from a
// materialized effective-weight matrix that is computed once and then
// kept current incrementally:
//
//   - StepDevice / StepDevices patch the single cell each pulse moved.
//   - AdvanceFaults patches the cells of newly stuck devices.
//   - MapWeights / MapWeightsFaultAware / SetFaultInjector / Drift /
//     StateDrift / AddStress / RandomizeAging / SetTempK / the public
//     Device accessor invalidate the whole cache; the next read
//     rebuilds it.
//   - Read-burst noise (fault injection) is applied per read without
//     touching the cache: a burst-affected read recomputes noisy values
//     from device state directly, and the clean cache survives.
//
// Cell values are EffectiveWeight(r, ...) — a pure function of the
// device resistance and the mapping ranges — so a patched cache is
// bit-identical to a full recompute; TestEquivalence* and
// FuzzCacheInvalidation in this package prove it against the naive
// oracle (EffectiveWeightsNaive).

// invalidate drops the materialized matrix; the next read rebuilds it.
func (c *Crossbar) invalidate() { c.effValid = false }

// ensure (re)builds the effective-weight matrix.
func (c *Crossbar) ensure() {
	if c.effValid {
		c.tel.cacheHits.Inc()
		return
	}
	c.tel.cacheMisses.Inc()
	if c.eff == nil {
		c.eff = tensor.New(c.Rows, c.Cols)
	}
	ed := c.eff.Data()
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			ed[i*c.Cols+j] = EffectiveWeight(c.at(i, j).Resistance(), c.wMin, c.wMax, c.rLo, c.rHi)
		}
	}
	c.effValid = true
}

// patch refreshes the cached value of cell (i, j) after its device
// moved (tuning pulse) or stuck (wear-out). A no-op while the cache is
// invalid or the array unmapped — the next ensure recomputes anyway.
func (c *Crossbar) patch(i, j int) {
	if !c.effValid || !c.mapped {
		return
	}
	c.eff.Data()[i*c.Cols+j] = EffectiveWeight(c.at(i, j).Resistance(), c.wMin, c.wMax, c.rLo, c.rHi)
}

// noisyInto writes a burst-affected readback into dst: every device's
// resistance is perturbed by a fresh multiplicative noise draw before
// conversion. The cache is neither consulted nor modified, and the
// per-device draw order matches the naive oracle exactly.
func (c *Crossbar) noisyInto(dst *tensor.Tensor, sigma float64) {
	d := dst.Data()
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			r := c.at(i, j).Resistance()
			r *= c.inj.ReadNoise(sigma)
			d[i*c.Cols+j] = EffectiveWeight(r, c.wMin, c.wMax, c.rLo, c.rHi)
		}
	}
}

// readBurst draws one readback-event decision from the injector.
func (c *Crossbar) readBurst() (bool, float64) {
	if c.inj == nil {
		return false, 0
	}
	return c.inj.ReadBurst()
}

// ReadWeightsInto copies one readback of the weight matrix the array
// actually implements into dst (size Rows*Cols, row-major) without
// allocating. Stuck devices read at their pinned resistance, so the
// readback is the fault-aware truth of what the hardware computes. With
// a warm cache it is a single memcpy instead of a per-device
// conductance inversion; when the attached fault injector fires a
// read-noise burst, dst instead receives freshly computed noisy values
// and the cache is left untouched. Returns ErrNotMapped before the
// first MapWeights. This is the hot path of MappedNetwork.Refresh.
func (c *Crossbar) ReadWeightsInto(dst *tensor.Tensor) error {
	if !c.mapped {
		return ErrNotMapped
	}
	if dst.Size() != c.Rows*c.Cols {
		return fmt.Errorf("crossbar: readback into size %d, want %d", dst.Size(), c.Rows*c.Cols)
	}
	if burst, sigma := c.readBurst(); burst {
		c.noisyInto(dst, sigma)
		return nil
	}
	c.ensure()
	copy(dst.Data(), c.eff.Data())
	return nil
}

// EffectiveWeightsNaive recomputes the effective weight matrix from
// per-device resistance state on every call — the original,
// cache-free read path, kept as the reference oracle for the
// equivalence test suite and the benchmark harness. It consumes the
// same read-burst draws as the cached path, so two identically driven
// arrays stay in lockstep whichever path reads them.
func (c *Crossbar) EffectiveWeightsNaive() (*tensor.Tensor, error) {
	if !c.mapped {
		return nil, ErrNotMapped
	}
	burst, sigma := c.readBurst()
	out := tensor.New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			r := c.at(i, j).Resistance()
			if burst {
				r *= c.inj.ReadNoise(sigma)
			}
			out.Set(EffectiveWeight(r, c.wMin, c.wMax, c.rLo, c.rHi), i, j)
		}
	}
	return out, nil
}
