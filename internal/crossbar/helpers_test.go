package crossbar

import (
	"testing"

	"memlife/internal/tensor"
)

// mustEff reads the array once into a fresh tensor through
// ReadWeightsInto, failing the test on error.
func mustEff(t testing.TB, cb *Crossbar) *tensor.Tensor {
	t.Helper()
	eff := tensor.New(cb.Rows, cb.Cols)
	if err := cb.ReadWeightsInto(eff); err != nil {
		t.Fatalf("ReadWeightsInto: %v", err)
	}
	return eff
}

// skipVector consumes the draws of one n-element normal vector from
// rng. The seeded mutation-script tests take these draws from their op
// stream before the script starts, which fixes the operation sequence
// each seed runs.
func skipVector(rng *tensor.RNG, n int) { rng.FillNormal(tensor.New(n), 0, 1) }

// mustAcc evaluates the mapped network, failing the test on error.
func mustAcc(t testing.TB, mn *MappedNetwork, x *tensor.Tensor, y []int) float64 {
	t.Helper()
	acc, err := mn.Accuracy(x, y)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	return acc
}

// mustRefresh refreshes the mapped network, failing the test on error.
func mustRefresh(t testing.TB, mn *MappedNetwork) {
	t.Helper()
	if err := mn.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
}
