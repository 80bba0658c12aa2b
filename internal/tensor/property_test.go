package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: transposing twice is the identity.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, n := 1+r.Intn(8), 1+r.Intn(8)
		x := New(m, n)
		r.FillNormal(x, 0, 1)
		y := x.Transpose().Transpose()
		for i, v := range x.Data() {
			if y.Data()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clamp is idempotent and bounds the result.
func TestClampIdempotentProperty(t *testing.T) {
	f := func(seed int64, rawLo, rawHi float64) bool {
		lo := math.Mod(math.Abs(rawLo), 10) - 5
		hi := lo + math.Mod(math.Abs(rawHi), 10)
		r := NewRNG(seed)
		x := New(20)
		r.FillNormal(x, 0, 10)
		x.Clamp(lo, hi)
		once := append([]float64(nil), x.Data()...)
		x.Clamp(lo, hi)
		for i, v := range x.Data() {
			if v != once[i] || v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SumRows equals a manual column sum.
func TestSumRowsMatchesManual(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, n := 1+r.Intn(6), 1+r.Intn(6)
		x := New(m, n)
		r.FillNormal(x, 0, 1)
		s := x.SumRows()
		for j := 0; j < n; j++ {
			want := 0.0
			for i := 0; i < m; i++ {
				want += x.At(i, j)
			}
			if math.Abs(s.Data()[j]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and positive on self.
func TestDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(16)
		a, b := New(n), New(n)
		r.FillNormal(a, 0, 1)
		r.FillNormal(b, 0, 1)
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-12 {
			return false
		}
		return Dot(a, a) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdEdgeCases(t *testing.T) {
	empty := New(0)
	if empty.Mean() != 0 || empty.Std() != 0 || empty.AbsMax() != 0 {
		t.Fatal("empty tensor statistics must be zero")
	}
	single := FromSlice([]float64{7}, 1)
	if single.Mean() != 7 || single.Std() != 0 {
		t.Fatal("single-element statistics")
	}
}
