package crossbar

import (
	"memlife/internal/device"
	"memlife/internal/telemetry"
)

// crossbarTel holds the crossbar's telemetry handles, resolved once at
// construction from the global registry. With telemetry disabled every
// handle is nil and each instrumented site costs one branch — the
// nil-sink fast path benchmarked by the telemetry kernel of
// internal/bench. All handles are process-wide instruments: multiple
// crossbars (and campaign workers) aggregate into the same counters.
//
// Naming (see DESIGN.md "Telemetry"): device/* aggregates per-device
// events observed by the crossbar (the device layer itself stays
// handle-free — with millions of device instances, per-object handles
// would dominate memory); crossbar/* covers the cached read path.
// Instruments recording wall-clock time end in _ns and are excluded
// from determinism comparisons.
type crossbarTel struct {
	// Cached read path.
	cacheHits   *telemetry.Counter // reads served by a valid cache
	cacheMisses *telemetry.Counter // reads that (re)built the cache

	// Cache invalidations by cause.
	invalMap    *telemetry.Counter
	invalDrift  *telemetry.Counter
	invalStress *telemetry.Counter
	invalAging  *telemetry.Counter
	invalTemp   *telemetry.Counter
	invalFaults *telemetry.Counter
	invalDevice *telemetry.Counter

	// Device wear, aggregated over the devices this crossbar drives.
	pulses *telemetry.Counter // programming pulses applied (incl. failed)
	stress *telemetry.Gauge   // accumulated normalized stress (monotone)

	// Remaining range at the most recent (re)mapping: usable fresh-grid
	// levels inside the aged windows the mapping clamped against
	// (observed at mapping entry, before its own pulses added stress),
	// mean and min over the programmed devices.
	usableMean *telemetry.Gauge
	usableMin  *telemetry.Gauge
}

// newCrossbarTel resolves the handle set from the global registry
// (all-nil when telemetry is disabled).
func newCrossbarTel() crossbarTel {
	r := telemetry.Global()
	if r == nil {
		return crossbarTel{}
	}
	return crossbarTel{
		cacheHits:   r.Counter("crossbar/cache_hits"),
		cacheMisses: r.Counter("crossbar/cache_misses"),
		invalMap:    r.Counter("crossbar/invalidations/map"),
		invalDrift:  r.Counter("crossbar/invalidations/drift"),
		invalStress: r.Counter("crossbar/invalidations/stress"),
		invalAging:  r.Counter("crossbar/invalidations/aging"),
		invalTemp:   r.Counter("crossbar/invalidations/tempk"),
		invalFaults: r.Counter("crossbar/invalidations/faults"),
		invalDevice: r.Counter("crossbar/invalidations/device_escape"),
		pulses:      r.Counter("device/pulses_total"),
		stress:      r.Gauge("device/stress_total"),
		usableMean:  r.Gauge("device/usable_levels_mean"),
		usableMin:   r.Gauge("device/usable_levels_min"),
	}
}

// usableAccum accumulates usable-level statistics during a mapping loop
// (the loop already computes every device's aged bounds, so observing
// costs one UsableLevels call and two integer ops per device). Inactive
// (track=false) when telemetry is disabled — observe is then a no-op.
type usableAccum struct {
	track bool
	total int64
	min   int
	n     int64
}

func (u *usableAccum) observe(p device.Params, lo, hi float64) {
	if !u.track {
		return
	}
	n := p.UsableLevels(lo, hi)
	if u.n == 0 || n < u.min {
		u.min = n
	}
	u.total += int64(n)
	u.n++
}

// recordMapTel publishes the cost and remaining-range statistics of one
// (re)mapping pass. Stuck devices skipped by the fault-aware mapping
// are not observed by usable, so the gauges describe the programmable
// population.
func (c *Crossbar) recordMapTel(stats MapStats, usable usableAccum) {
	c.tel.pulses.Add(int64(stats.Pulses))
	c.tel.stress.Add(stats.Stress)
	if usable.track && usable.n > 0 {
		c.tel.usableMean.Set(float64(usable.total) / float64(usable.n))
		c.tel.usableMin.Set(float64(usable.min))
	}
}
