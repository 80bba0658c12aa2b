package main

import (
	"fmt"
	"sort"
	"time"

	"memlife/internal/crossbar"
	"memlife/internal/mapping"
	"memlife/internal/nn"
)

// probeReps is how many times each unit cost is measured; the median
// is reported.
const probeReps = 15

// unitCosts are the per-call costs of the NN layers and the crossbar
// read and pulse paths, measured on the fixture's skewed network mapped
// onto a fresh array.
type unitCosts struct {
	fwd, bwd   map[string]float64 // layer group -> seconds per call
	accuracy   float64            // one MappedNetwork.Accuracy on the eval batch, s
	refresh    float64            // one MappedNetwork.Refresh, s
	pulse      float64            // StepDevices time per pulse, s
	stepsProbe int                // pulses per StepDevices round
}

// layerGroup names the per-layer metric a network layer reports under:
// each convolution by name, all dense layers together as "fc", and ""
// for layers without weights (activations, pooling, flatten).
func layerGroup(l nn.Layer) string {
	switch t := l.(type) {
	case *nn.Conv2D:
		return t.Name()
	case *nn.Dense:
		return "fc"
	}
	return ""
}

// probeUnits measures the unit costs. Forward calls run on the
// evaluation batch (evalN samples) in inference mode; backward calls on
// a tuning batch of batchSize samples; the pulse list is the one a
// tuning iteration would apply for the same gradients (the top stepFrac
// of gradient magnitudes network-wide).
func probeUnits(fx *fixture, evalN, batchSize int, stepFrac float64) (unitCosts, error) {
	uc := unitCosts{fwd: map[string]float64{}, bwd: map[string]float64{}}
	net := fx.b.Skewed
	snap := net.SnapshotParams()
	defer net.RestoreParams(snap)
	sp := fx.b.Spec
	mn, err := crossbar.NewMappedNetwork(net, sp.Device, sp.Aging, sp.TempK)
	if err != nil {
		return uc, err
	}
	if _, err := mapping.Map(mn, mapping.Config{Policy: mapping.Fresh}, nil, nil); err != nil {
		return uc, err
	}
	evalDS := fx.b.TrainDS.Subset(evalN)
	eval := evalDS.Batches(evalDS.Len(), nil)[0]
	tuneBatch := fx.b.TrainDS.Batches(batchSize, nil)[0]

	fwd := map[string][]float64{}
	bwd := map[string][]float64{}
	var acc, refresh, pulse []float64
	for rep := 0; rep < probeReps; rep++ {
		// Forward, layer by layer, on the evaluation batch.
		perGroup := map[string]float64{}
		x := eval.X
		for _, l := range net.Layers {
			t := time.Now()
			x = l.Forward(x, false)
			if g := layerGroup(l); g != "" {
				perGroup[g] += time.Since(t).Seconds()
			}
		}
		for g, v := range perGroup {
			fwd[g] = append(fwd[g], v)
		}

		// Backward, layer by layer, on a tuning batch.
		if err := mn.Refresh(); err != nil {
			return uc, err
		}
		net.ZeroGrads()
		logits := net.Forward(tuneBatch.X, true)
		_, d := nn.SoftmaxCrossEntropy(logits, tuneBatch.Y)
		perGroup = map[string]float64{}
		for i := len(net.Layers) - 1; i >= 0; i-- {
			l := net.Layers[i]
			t := time.Now()
			d = l.Backward(d)
			if g := layerGroup(l); g != "" {
				perGroup[g] += time.Since(t).Seconds()
			}
		}
		for g, v := range perGroup {
			bwd[g] = append(bwd[g], v)
		}

		// Pulses: the tuning step's device list for these gradients.
		steps := pulseLists(mn, stepFrac)
		n := 0
		t := time.Now()
		for i, l := range mn.Layers {
			l.Crossbar.StepDevices(steps[i], 2)
			n += len(steps[i])
		}
		if n > 0 {
			pulse = append(pulse, time.Since(t).Seconds()/float64(n))
		}
		uc.stepsProbe = n

		t = time.Now()
		if err := mn.Refresh(); err != nil {
			return uc, err
		}
		refresh = append(refresh, time.Since(t).Seconds())

		t = time.Now()
		if _, err := mn.Accuracy(eval.X, eval.Y); err != nil {
			return uc, err
		}
		acc = append(acc, time.Since(t).Seconds())
	}
	for g, v := range fwd {
		uc.fwd[g] = median(v)
	}
	for g, v := range bwd {
		uc.bwd[g] = median(v)
	}
	uc.accuracy, uc.refresh, uc.pulse = median(acc), median(refresh), median(pulse)
	for _, g := range []string{"conv1", "conv2", "fc"} {
		if _, ok := uc.fwd[g]; !ok {
			return uc, fmt.Errorf("probe: network has no %s layer group", g)
		}
	}
	return uc, nil
}

// pulseLists builds, per mapped layer, the pulse list a tuning
// iteration applies: every device whose gradient magnitude reaches the
// network-wide threshold that keeps the top frac of magnitudes, pulsed
// against the gradient's sign.
func pulseLists(mn *crossbar.MappedNetwork, frac float64) [][]crossbar.Step {
	var abs []float64
	for _, l := range mn.Layers {
		for _, v := range l.Param.Grad.Data() {
			if v < 0 {
				v = -v
			}
			abs = append(abs, v)
		}
	}
	k := int(float64(len(abs)) * frac)
	if k < 1 {
		k = 1
	}
	sort.Float64s(abs)
	thr := abs[len(abs)-k]
	out := make([][]crossbar.Step, len(mn.Layers))
	for i, l := range mn.Layers {
		cols := l.Crossbar.Cols
		for idx, g := range l.Param.Grad.Data() {
			a := g
			if a < 0 {
				a = -a
			}
			if a < thr || a == 0 {
				continue
			}
			dir := -1
			if g < 0 {
				dir = 1
			}
			out[i] = append(out[i], crossbar.Step{I: idx / cols, J: idx % cols, Dir: dir})
		}
	}
	return out
}
