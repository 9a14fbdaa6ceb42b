package stats

import (
	"fmt"
	"math"
)

// NegBinResult is a fitted negative binomial (NB2) regression:
// Var(Y) = μ + α·μ². It exists to test the Poisson modelling choice the
// paper makes ("non-overdispersed count data"): when α ≈ 0 the NB2 model
// collapses to Poisson and a likelihood-ratio test will not reject it.
type NegBinResult struct {
	Coef      []float64
	Alpha     float64 // dispersion parameter (0 = Poisson)
	LogLik    float64
	AIC, BIC  float64
	N         int
	Converged bool

	// PoissonLogLik is the plain Poisson fit on the same design, and
	// LRStatistic = 2(LogLik − PoissonLogLik) is the boundary likelihood-
	// ratio statistic for overdispersion (compare to a 0.5·χ²₁ mixture).
	PoissonLogLik float64
	LRStatistic   float64
}

// NegBinRegression fits y ~ NB2(exp(X·beta), alpha) by alternating IRLS
// for beta (given alpha) with golden-section profile likelihood for alpha.
func NegBinRegression(x *Matrix, y []float64) (*NegBinResult, error) {
	if err := checkDesign(x, y, nil); err != nil {
		return nil, err
	}
	for _, v := range y {
		if !(v >= 0 && v < maxCount) || v != math.Trunc(v) {
			return nil, fmt.Errorf("stats: NB response must be a finite non-negative integer, got %g", v)
		}
	}
	pois, err := PoissonRegression(x, y, nil)
	if err != nil {
		return nil, fmt.Errorf("stats: NB init failed: %w", err)
	}
	beta := append([]float64(nil), pois.Coef...)
	alpha := 0.1

	res := &NegBinResult{N: len(y), PoissonLogLik: pois.LogLik}
	prev := math.Inf(-1)
	for outer := 0; outer < 50; outer++ {
		var ferr error
		beta, ferr = nbIRLS(x, y, beta, alpha)
		if ferr != nil {
			return nil, ferr
		}
		alpha = goldenMin(func(a float64) float64 {
			return -nbLogLik(x, y, beta, a)
		}, 1e-6, 20, 1e-7)
		lik := nbLogLik(x, y, beta, alpha)
		if math.Abs(lik-prev) < 1e-9*(math.Abs(lik)+1) {
			res.Converged = true
			break
		}
		prev = lik
	}
	res.Coef = beta
	res.Alpha = alpha
	res.LogLik = nbLogLik(x, y, beta, alpha)
	k := float64(x.Cols + 1)
	res.AIC = -2*res.LogLik + 2*k
	res.BIC = -2*res.LogLik + k*math.Log(float64(res.N))
	res.LRStatistic = 2 * (res.LogLik - res.PoissonLogLik)
	if res.LRStatistic < 0 {
		res.LRStatistic = 0 // boundary case: Poisson is the MLE
	}
	return res, nil
}

// nbIRLS runs IRLS for the NB2 mean model at fixed dispersion.
func nbIRLS(x *Matrix, y []float64, start []float64, alpha float64) ([]float64, error) {
	n := x.Rows
	beta := append([]float64(nil), start...)
	w := make([]float64, n)
	z := make([]float64, n)
	for iter := 0; iter < glmMaxIter; iter++ {
		for i := 0; i < n; i++ {
			eta := clampEta(Dot(x.Row(i), beta))
			mu := math.Exp(eta)
			// NB2 working weight: mu / (1 + alpha·mu).
			w[i] = mu / (1 + alpha*mu)
			z[i] = eta + (y[i]-mu)/mu
		}
		gram := XtWX(x, w)
		rhs := XtWz(x, w, z)
		next, err := SolveSPD(gram, rhs)
		if err != nil {
			return nil, fmt.Errorf("stats: NB IRLS step failed: %w", err)
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		beta = next
		if delta < 1e-9 {
			break
		}
	}
	return beta, nil
}

// NegBinLogPMF returns log P(Y=k) for the NB2 parameterisation with mean
// mu and dispersion alpha (alpha → 0 recovers Poisson).
func NegBinLogPMF(k int, mu, alpha float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if alpha < 1e-10 {
		return PoissonLogPMF(k, mu)
	}
	r := 1 / alpha // size parameter
	kf := float64(k)
	lg1, _ := math.Lgamma(kf + r)
	lg2, _ := math.Lgamma(r)
	lg3, _ := math.Lgamma(kf + 1)
	return lg1 - lg2 - lg3 + r*math.Log(r/(r+mu)) + kf*math.Log(mu/(r+mu))
}

func nbLogLik(x *Matrix, y []float64, beta []float64, alpha float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		mu := math.Exp(clampEta(Dot(x.Row(i), beta)))
		lik += NegBinLogPMF(int(y[i]), mu, alpha)
	}
	return lik
}

// OverdispersionLR reports whether the boundary likelihood-ratio test
// rejects Poisson in favour of NB2 at the 5% level. The null distribution
// is a 50:50 mixture of a point mass at 0 and χ²₁, so the critical value
// is the χ²₁ 90th percentile (2.706).
func (r *NegBinResult) OverdispersionLR() bool {
	return r.LRStatistic > 2.706
}
