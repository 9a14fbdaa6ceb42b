package stats

import (
	"math"
	"testing"

	"turnup/internal/rng"
)

func TestNegBinLogPMF(t *testing.T) {
	// alpha → 0 recovers Poisson.
	for k := 0; k < 10; k++ {
		nb := NegBinLogPMF(k, 3, 1e-12)
		po := PoissonLogPMF(k, 3)
		if !almostEq(nb, po, 1e-9) {
			t.Errorf("k=%d: NB %v vs Poisson %v", k, nb, po)
		}
	}
	// PMF sums to 1.
	for _, alpha := range []float64{0.2, 1.0, 3.0} {
		s := 0.0
		for k := 0; k < 600; k++ {
			s += math.Exp(NegBinLogPMF(k, 4, alpha))
		}
		if !almostEq(s, 1, 1e-6) {
			t.Errorf("NB(alpha=%v) sums to %v", alpha, s)
		}
	}
	if !math.IsInf(NegBinLogPMF(-1, 4, 1), -1) {
		t.Error("negative k not impossible")
	}
}

// drawNB2 samples NB2 via the canonical gamma-Poisson mixture.
func drawNB2(src *rng.Source, mu, alpha float64) int {
	return src.NegBinomial(mu, alpha)
}

func TestNegBinRecoversDispersion(t *testing.T) {
	src := rng.New(701)
	const n = 6000
	trueBeta := []float64{1.2, 0.4}
	const trueAlpha = 0.5 // shape 2
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		xv := src.Norm()
		x.Set(i, 1, xv)
		mu := math.Exp(trueBeta[0] + trueBeta[1]*xv)
		y[i] = float64(drawNB2(src, mu, trueAlpha))
	}
	res, err := NegBinRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range trueBeta {
		if math.Abs(res.Coef[j]-want) > 0.08 {
			t.Errorf("beta[%d] = %v, want %v", j, res.Coef[j], want)
		}
	}
	if math.Abs(res.Alpha-trueAlpha) > 0.12 {
		t.Errorf("alpha = %v, want %v", res.Alpha, trueAlpha)
	}
	if !res.OverdispersionLR() {
		t.Errorf("LR test failed to detect overdispersion (LR=%v)", res.LRStatistic)
	}
	if res.LogLik <= res.PoissonLogLik {
		t.Errorf("NB loglik %v not above Poisson %v on overdispersed data", res.LogLik, res.PoissonLogLik)
	}
}

func TestNegBinOnPoissonData(t *testing.T) {
	src := rng.New(709)
	const n = 5000
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		y[i] = float64(src.Poisson(5))
	}
	res, err := NegBinRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Dispersion collapses toward zero; the LR test must not reject.
	if res.Alpha > 0.05 {
		t.Errorf("alpha = %v on pure Poisson data", res.Alpha)
	}
	if res.OverdispersionLR() {
		t.Errorf("spurious overdispersion (LR=%v)", res.LRStatistic)
	}
}

func TestNegBinRejectsBadInput(t *testing.T) {
	x := NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		x.Set(i, 0, 1)
	}
	if _, err := NegBinRegression(x, []float64{1, 2, -1}); err == nil {
		t.Error("negative response accepted")
	}
	if _, err := NegBinRegression(x, []float64{1, 2, 2.5}); err == nil {
		t.Error("non-integer response accepted")
	}
	if _, err := NegBinRegression(x, []float64{1, 2, math.Inf(1)}); err == nil {
		t.Error("+Inf response accepted")
	}
}
