package stats

import (
	"fmt"
	"math"
)

// CoefBlock is one block (count model or zero-inflation model) of a fitted
// zero-inflated regression, with named coefficients for reporting.
type CoefBlock struct {
	Names   []string
	Coef    []float64
	StdErr  []float64
	ZValues []float64
	PValues []float64
}

// Stars returns the significance stars for coefficient j.
func (b *CoefBlock) Stars(j int) string { return SignificanceStars(b.PValues[j]) }

// ZIPResult is a fitted Zero-Inflated Poisson regression, mirroring the
// quantities the paper reports in Tables 9 and 10: both coefficient blocks,
// the share of zero responses, McFadden's pseudo R², and the Vuong test
// against a plain Poisson model.
type ZIPResult struct {
	Count *CoefBlock // Poisson count model (log link)
	Zero  *CoefBlock // zero-inflation model (logit link)

	LogLik    float64
	AIC, BIC  float64
	McFadden  float64
	N         int
	PctZero   float64 // percentage of observations with zero response
	Vuong     float64 // Vuong z statistic, positive favours ZIP over Poisson
	VuongP    float64 // one-sided p-value for "ZIP is better"
	Iters     int
	Converged bool
}

const (
	zipMaxIter = 900
	zipTol     = 3e-8
)

// ZIPRegression fits a zero-inflated Poisson model where the count mean is
// exp(countX·beta) and the structural-zero probability is
// logistic(zeroX·gamma), via the standard EM algorithm (structural-zero
// membership as the latent variable). countNames and zeroNames label the
// respective design columns for reporting and must match the column counts.
//
// Standard errors come from the numerically evaluated observed information
// matrix at the EM optimum.
func ZIPRegression(countX *Matrix, y []float64, zeroX *Matrix, countNames, zeroNames []string) (*ZIPResult, error) {
	if err := checkDesign(countX, y, nil); err != nil {
		return nil, err
	}
	if err := checkDesign(zeroX, y, nil); err != nil {
		return nil, err
	}
	if len(countNames) != countX.Cols {
		return nil, fmt.Errorf("stats: %d count names for %d columns", len(countNames), countX.Cols)
	}
	if len(zeroNames) != zeroX.Cols {
		return nil, fmt.Errorf("stats: %d zero names for %d columns", len(zeroNames), zeroX.Cols)
	}
	n := len(y)
	zeros := 0
	for _, v := range y {
		if !(v >= 0 && v < maxCount) || v != math.Trunc(v) {
			return nil, fmt.Errorf("stats: ZIP response must be a finite non-negative integer, got %g", v)
		}
		if v == 0 {
			zeros++
		}
	}

	beta, gamma, lik, iters, converged, err := zipEM(countX, y, zeroX)
	if err != nil {
		return nil, err
	}

	res := &ZIPResult{
		N:         n,
		PctZero:   100 * float64(zeros) / float64(n),
		LogLik:    lik,
		Iters:     iters,
		Converged: converged,
	}
	p, q := countX.Cols, zeroX.Cols
	k := p + q
	res.AIC = -2*lik + 2*float64(k)
	res.BIC = -2*lik + float64(k)*math.Log(float64(n))

	// Standard errors from the observed information (numerical Hessian).
	se, err := zipStdErrs(countX, y, zeroX, beta, gamma)
	if err != nil {
		return nil, err
	}
	res.Count = newCoefBlock(countNames, beta, se[:p])
	res.Zero = newCoefBlock(zeroNames, gamma, se[p:])

	// Null model for McFadden: intercept-only ZIP.
	ones := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		ones.Set(i, 0, 1)
	}
	_, _, nullLik, _, _, err := zipEM(ones, y, ones)
	if err == nil && nullLik != 0 {
		res.McFadden = 1 - lik/nullLik
	}

	// Vuong test against a plain Poisson regression on the count design.
	pois, err := PoissonRegression(countX, y, nil)
	if err == nil {
		res.Vuong, res.VuongP = vuongZIPvsPoisson(countX, y, zeroX, beta, gamma, pois.Coef)
	}
	return res, nil
}

func newCoefBlock(names []string, coef, se []float64) *CoefBlock {
	b := &CoefBlock{
		Names:   append([]string(nil), names...),
		Coef:    append([]float64(nil), coef...),
		StdErr:  append([]float64(nil), se...),
		ZValues: make([]float64, len(coef)),
		PValues: make([]float64, len(coef)),
	}
	for j := range coef {
		if se[j] > 0 {
			b.ZValues[j] = coef[j] / se[j]
		}
		b.PValues[j] = PValueTwoSided(b.ZValues[j])
	}
	return b
}

// zipEM runs the EM loop and returns beta (count), gamma (zero), the final
// log-likelihood, iterations, and convergence flag. The M-step runs the
// regressions' IRLS loops directly: zipEM needs only their coefficients,
// not the standard errors and likelihoods the public fits add.
func zipEM(countX *Matrix, y []float64, zeroX *Matrix) (beta, gamma []float64, lik float64, iters int, converged bool, err error) {
	n := len(y)
	// y holds integers, so Lgamma(y+1) is PoissonLogPMF's lgamma term for
	// both the E-step and the count M-step; it never changes.
	lgy := countLgammas(y)

	// Initialise the count model from a plain Poisson fit and the zero
	// model from the empirical excess-zero share.
	pois, err := poissonIRLS(countX, y, nil, lgy)
	if err != nil {
		return nil, nil, 0, 0, false, fmt.Errorf("stats: ZIP init failed: %w", err)
	}
	beta = pois.coef
	gamma = make([]float64, zeroX.Cols)
	zeroShare := 0.0
	for _, v := range y {
		if v == 0 {
			zeroShare++
		}
	}
	zeroShare /= float64(n)
	gamma[0] = math.Log((zeroShare + 0.05) / (1 - zeroShare + 0.05))

	r := make([]float64, n) // E[structural zero | y]
	wCount := make([]float64, n)
	prev := math.Inf(-1)
	for iter := 1; iter <= zipMaxIter; iter++ {
		iters = iter
		// E-step.
		lik = 0
		for i := 0; i < n; i++ {
			mu := math.Exp(clampEta(Dot(countX.Row(i), beta)))
			pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), gamma))))
			if y[i] == 0 {
				pz := pi + (1-pi)*math.Exp(-mu)
				if pz < 1e-300 {
					pz = 1e-300
				}
				r[i] = pi / pz
				lik += math.Log(pz)
			} else {
				r[i] = 0
				lik += math.Log1p(-pi) + poissonLogPMFFrom(y[i], mu, math.Log(mu), lgy[i])
			}
			wCount[i] = 1 - r[i]
		}
		if math.Abs(lik-prev) < zipTol*(math.Abs(lik)+1) {
			converged = true
			break
		}
		prev = lik

		// M-step: weighted Poisson for the count part, fractional-response
		// logistic for the zero part.
		pfit, perr := poissonIRLS(countX, y, wCount, lgy)
		if perr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP count M-step: %w", perr)
		}
		beta = pfit.coef
		lfit, lerr := logisticIRLS(zeroX, r, nil)
		if lerr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP zero M-step: %w", lerr)
		}
		gamma = lfit.coef
	}
	lik = zipLogLik(countX, y, zeroX, beta, gamma)
	return beta, gamma, lik, iters, converged, nil
}

func zipLogLik(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma []float64) float64 {
	lik := 0.0
	for i := range y {
		mu := math.Exp(clampEta(Dot(countX.Row(i), beta)))
		pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), gamma))))
		lik += ZIPLogPMF(int(y[i]), pi, mu)
	}
	return lik
}

// zipStdErrs computes sqrt(diag(inv(-H))) where H is the numerically
// differentiated Hessian of the ZIP log-likelihood at (beta, gamma).
func zipStdErrs(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma []float64) ([]float64, error) {
	p, q := len(beta), len(gamma)
	k := p + q
	theta := make([]float64, k)
	copy(theta, beta)
	copy(theta[p:], gamma)

	f := func(t []float64) float64 {
		return zipLogLik(countX, y, zeroX, t[:p], t[p:])
	}

	h := NewMatrix(k, k)
	step := make([]float64, k)
	for j := 0; j < k; j++ {
		step[j] = 1e-4 * (math.Abs(theta[j]) + 1e-2)
	}
	// Central-difference Hessian.
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := hessianElem(f, theta, a, b, step)
			h.Set(a, b, v)
			h.Set(b, a, v)
		}
	}
	// Observed information is -H; invert with ridge fallback.
	info := NewMatrix(k, k)
	for i := range info.Data {
		info.Data[i] = -h.Data[i]
	}
	cov, err := InvertSPD(info)
	if err != nil {
		return nil, fmt.Errorf("stats: ZIP information matrix: %w", err)
	}
	se := make([]float64, k)
	for j := 0; j < k; j++ {
		se[j] = math.Sqrt(math.Max(cov.At(j, j), 0))
	}
	return se, nil
}

func hessianElem(f func([]float64) float64, x []float64, a, b int, step []float64) float64 {
	t := make([]float64, len(x))
	eval := func(da, db float64) float64 {
		copy(t, x)
		t[a] += da
		t[b] += db
		return f(t)
	}
	ha, hb := step[a], step[b]
	if a == b {
		return (eval(ha, 0) - 2*f(x) + eval(-ha, 0)) / (ha * ha)
	}
	return (eval(ha, hb) - eval(ha, -hb) - eval(-ha, hb) + eval(-ha, -hb)) / (4 * ha * hb)
}

// vuongZIPvsPoisson computes the Vuong non-nested test statistic comparing
// the fitted ZIP model against a plain Poisson fit. Positive values favour
// ZIP; the returned p-value is one-sided.
func vuongZIPvsPoisson(countX *Matrix, y []float64, zeroX *Matrix, beta, gamma, poisBeta []float64) (z, p float64) {
	n := len(y)
	m := make([]float64, n)
	for i := range y {
		mu := math.Exp(clampEta(Dot(countX.Row(i), beta)))
		pi := 1 / (1 + math.Exp(-clampEta(Dot(zeroX.Row(i), gamma))))
		muP := math.Exp(clampEta(Dot(countX.Row(i), poisBeta)))
		m[i] = ZIPLogPMF(int(y[i]), pi, mu) - PoissonLogPMF(int(y[i]), muP)
	}
	mean := Mean(m)
	sd := StdDev(m)
	if sd == 0 {
		return 0, 1
	}
	z = math.Sqrt(float64(n)) * mean / sd
	p = 1 - NormalCDF(z)
	return z, p
}
