package stats

import (
	"errors"
	"fmt"
	"math"
)

// GLMResult holds a fitted generalised linear model.
type GLMResult struct {
	Coef      []float64 // estimated coefficients, intercept first if the design includes one
	StdErr    []float64 // asymptotic standard errors from the observed information
	ZValues   []float64 // Coef / StdErr
	PValues   []float64 // two-sided normal p-values
	LogLik    float64   // maximised log-likelihood
	NullLik   float64   // log-likelihood of the intercept-only model
	AIC, BIC  float64
	McFadden  float64 // 1 - LogLik/NullLik
	N         int     // observations (with positive weight)
	Iters     int     // IRLS/Newton iterations used
	Converged bool
}

const (
	glmMaxIter = 100
	glmTol     = 1e-9
	// Caps on the linear predictor keep exp() finite on wild starting
	// points without affecting converged fits on real data.
	etaCap = 30.0
)

func clampEta(eta float64) float64 {
	if eta > etaCap {
		return etaCap
	}
	if eta < -etaCap {
		return -etaCap
	}
	return eta
}

// PoissonRegression fits y ~ Poisson(exp(X·beta)) by IRLS with optional
// prior observation weights (nil for unit weights). X must include an
// intercept column if one is desired.
func PoissonRegression(x *Matrix, y, weights []float64) (*GLMResult, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return nil, err
	}
	fit, err := poissonIRLS(x, y, weights, countLgammas(y))
	if err != nil {
		return nil, err
	}
	return finishGLM(fit, x, weights, poissonLogLik(x, y, weights, fit.coef), poissonNullLik(y, weights))
}

// irlsFit is what an IRLS loop produces: the coefficients, plus the final
// working weights and iteration record that only the public regressions
// report (the ZIP M-step keeps just the coefficients).
type irlsFit struct {
	coef      []float64
	w         []float64 // final working weights
	iters     int
	converged bool
}

// countLgammas returns Lgamma(k+1) for each response's count
// k = int(round(y)): the response-only term of the Poisson log-PMF.
func countLgammas(y []float64) []float64 {
	lg := make([]float64, len(y))
	for i, v := range y {
		lg[i], _ = math.Lgamma(float64(int(math.Round(v))) + 1)
	}
	return lg
}

// poissonIRLS is PoissonRegression's IRLS loop; lgy is countLgammas(y).
// mu = exp(eta) > 0, so the loop's likelihood can take PoissonLogPMF from
// its parts with lgy in place of a per-row Lgamma call.
func poissonIRLS(x *Matrix, y, weights, lgy []float64) (irlsFit, error) {
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	// Start from the log of the weighted mean for the intercept-ish scale.
	beta[0] = math.Log(weightedMean(y, weights) + 1e-9)

	w := make([]float64, n) // IRLS working weights
	z := make([]float64, n) // working response
	prevLik := math.Inf(-1)
	fit := irlsFit{w: w}
	for iter := 1; iter <= glmMaxIter; iter++ {
		fit.iters = iter
		lik := 0.0
		for i := 0; i < n; i++ {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := math.Exp(eta)
			w[i] = wi * mu
			if mu > 0 {
				z[i] = eta + (y[i]-mu)/mu
			} else {
				z[i] = eta
			}
			if wi > 0 {
				lik += wi * poissonLogPMFFrom(float64(int(math.Round(y[i]))), mu, math.Log(mu), lgy[i])
			}
		}
		gram := XtWX(x, w)
		rhs := XtWz(x, w, z)
		next, err := SolveSPD(gram, rhs)
		if err != nil {
			return fit, fmt.Errorf("stats: Poisson IRLS step failed: %w", err)
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		beta = next
		if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) && delta < 1e-7 {
			fit.converged = true
			break
		}
		prevLik = lik
	}
	fit.coef = beta
	return fit, nil
}

func poissonLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if wi == 0 {
			continue
		}
		mu := math.Exp(clampEta(Dot(x.Row(i), beta)))
		lik += wi * PoissonLogPMF(int(math.Round(y[i])), mu)
	}
	return lik
}

func poissonNullLik(y, weights []float64) float64 {
	mu := weightedMean(y, weights)
	lik := 0.0
	for i, yi := range y {
		wi := priorWeight(weights, i)
		if wi == 0 {
			continue
		}
		lik += wi * PoissonLogPMF(int(math.Round(yi)), mu)
	}
	return lik
}

// LogisticRegression fits y ~ Bernoulli(logistic(X·beta)) by Newton's
// method. The response may be fractional (values in [0,1]) — the ZIP
// M-step relies on this — in which case the "likelihood" is the usual
// quasi-likelihood with fractional successes. weights may be nil.
func LogisticRegression(x *Matrix, y, weights []float64) (*GLMResult, error) {
	if err := checkDesign(x, y, weights); err != nil {
		return nil, err
	}
	for _, v := range y {
		if v < 0 || v > 1 {
			return nil, errors.New("stats: logistic response outside [0,1]")
		}
	}
	fit, err := logisticIRLS(x, y, weights)
	if err != nil {
		return nil, err
	}
	// Null model: intercept only, p = weighted mean of y.
	pbar := weightedMean(y, weights)
	null := 0.0
	for i, yi := range y {
		wi := priorWeight(weights, i)
		null += wi * bernoulliLogLik(yi, pbar)
	}
	return finishGLM(fit, x, weights, logisticLogLik(x, y, weights, fit.coef), null)
}

// logisticIRLS is LogisticRegression's Newton loop.
func logisticIRLS(x *Matrix, y, weights []float64) (irlsFit, error) {
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	w := make([]float64, n)
	z := make([]float64, n)
	prevLik := math.Inf(-1)
	fit := irlsFit{w: w}
	for iter := 1; iter <= glmMaxIter; iter++ {
		fit.iters = iter
		lik := 0.0
		for i := 0; i < n; i++ {
			wi := priorWeight(weights, i)
			eta := clampEta(Dot(x.Row(i), beta))
			mu := 1 / (1 + math.Exp(-eta))
			v := mu * (1 - mu)
			if v < 1e-10 {
				v = 1e-10
			}
			w[i] = wi * v
			z[i] = eta + (y[i]-mu)/v
			if wi > 0 {
				lik += wi * bernoulliLogLik(y[i], mu)
			}
		}
		gram := XtWX(x, w)
		rhs := XtWz(x, w, z)
		next, err := SolveSPD(gram, rhs)
		if err != nil {
			return fit, fmt.Errorf("stats: logistic Newton step failed: %w", err)
		}
		delta := 0.0
		for j := range beta {
			delta += math.Abs(next[j] - beta[j])
		}
		beta = next
		if math.Abs(lik-prevLik) < glmTol*(math.Abs(lik)+1) && delta < 1e-7 {
			fit.converged = true
			break
		}
		prevLik = lik
	}
	fit.coef = beta
	return fit, nil
}

func bernoulliLogLik(y, mu float64) float64 {
	const eps = 1e-12
	if mu < eps {
		mu = eps
	}
	if mu > 1-eps {
		mu = 1 - eps
	}
	return y*math.Log(mu) + (1-y)*math.Log(1-mu)
}

func logisticLogLik(x *Matrix, y, weights []float64, beta []float64) float64 {
	lik := 0.0
	for i := 0; i < x.Rows; i++ {
		wi := priorWeight(weights, i)
		if wi == 0 {
			continue
		}
		mu := 1 / (1 + math.Exp(-clampEta(Dot(x.Row(i), beta))))
		lik += wi * bernoulliLogLik(y[i], mu)
	}
	return lik
}

// finishGLM builds the public result from an IRLS fit: standard errors
// from the final working-weight Gram matrix (the observed information for
// canonical links), the likelihoods and the fit statistics.
func finishGLM(fit irlsFit, x *Matrix, weights []float64, lik, nullLik float64) (*GLMResult, error) {
	info := XtWX(x, fit.w)
	cov, err := InvertSPD(info)
	if err != nil {
		return nil, fmt.Errorf("stats: information matrix not invertible: %w", err)
	}
	p := x.Cols
	res := &GLMResult{
		Coef:      fit.coef,
		StdErr:    make([]float64, p),
		ZValues:   make([]float64, p),
		PValues:   make([]float64, p),
		LogLik:    lik,
		NullLik:   nullLik,
		N:         effectiveN(weights, x.Rows),
		Iters:     fit.iters,
		Converged: fit.converged,
	}
	for j := 0; j < p; j++ {
		res.StdErr[j] = math.Sqrt(math.Max(cov.At(j, j), 0))
		if res.StdErr[j] > 0 {
			res.ZValues[j] = res.Coef[j] / res.StdErr[j]
		}
		res.PValues[j] = PValueTwoSided(res.ZValues[j])
	}
	res.AIC = -2*res.LogLik + 2*float64(p)
	res.BIC = -2*res.LogLik + float64(p)*math.Log(float64(max(res.N, 1)))
	if res.NullLik != 0 {
		res.McFadden = 1 - res.LogLik/res.NullLik
	}
	return res, nil
}

func checkDesign(x *Matrix, y, weights []float64) error {
	if x.Rows != len(y) {
		return fmt.Errorf("stats: design has %d rows but response has %d", x.Rows, len(y))
	}
	if weights != nil && len(weights) != len(y) {
		return fmt.Errorf("stats: %d weights for %d observations", len(weights), len(y))
	}
	if x.Rows == 0 {
		return errors.New("stats: empty design matrix")
	}
	if x.Cols == 0 {
		return errors.New("stats: design matrix has no columns")
	}
	if x.Rows < x.Cols {
		return fmt.Errorf("stats: under-determined design (%d rows, %d cols)", x.Rows, x.Cols)
	}
	return nil
}

func priorWeight(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

func weightedMean(y, weights []float64) float64 {
	var sw, sy float64
	for i, v := range y {
		w := priorWeight(weights, i)
		sw += w
		sy += w * v
	}
	if sw == 0 {
		return 0
	}
	return sy / sw
}

func effectiveN(weights []float64, n int) int {
	if weights == nil {
		return n
	}
	count := 0
	for _, w := range weights {
		if w > 0 {
			count++
		}
	}
	return count
}

// PearsonDispersion computes the Pearson dispersion statistic
// φ = Σ (y_i − μ_i)² / μ_i / (n − p) for count data against fitted means.
// φ ≈ 1 indicates equidispersion (Poisson-consistent); φ ≫ 1 indicates
// overdispersion (a negative-binomial model would fit better). Entries
// with non-positive fitted means are skipped.
func PearsonDispersion(y, mu []float64, params int) float64 {
	if len(y) != len(mu) {
		panic("stats: PearsonDispersion length mismatch")
	}
	chi2 := 0.0
	n := 0
	for i := range y {
		if mu[i] <= 0 {
			continue
		}
		d := y[i] - mu[i]
		chi2 += d * d / mu[i]
		n++
	}
	df := n - params
	if df <= 0 {
		return 0
	}
	return chi2 / float64(df)
}
