package stats

import (
	"fmt"
	"math"
	"testing"

	"turnup/internal/rng"
)

// zipEMReference is zipEM as it was before its M-step moved onto the
// coefficient-only IRLS loops: each M-step calls the public regressions,
// which also compute standard errors and likelihoods zipEM discards, and
// the E-step evaluates PoissonLogPMF per row. It is the oracle zipEM must
// match bit for bit.
func zipEMReference(countX *Matrix, y []float64, zeroX *Matrix) (beta, gamma []float64, lik float64, iters int, converged bool, err error) {
	n := len(y)

	// Initialise the count model from a plain Poisson fit and the zero
	// model from the empirical excess-zero share.
	pois, err := PoissonRegression(countX, y, nil)
	if err != nil {
		return nil, nil, 0, 0, false, fmt.Errorf("stats: ZIP init failed: %w", err)
	}
	beta = append([]float64(nil), pois.Coef...)
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
				lik += math.Log1p(-pi) + PoissonLogPMF(int(y[i]), mu)
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
		pfit, perr := PoissonRegression(countX, y, wCount)
		if perr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP count M-step: %w", perr)
		}
		beta = pfit.Coef
		lfit, lerr := LogisticRegression(zeroX, r, nil)
		if lerr != nil {
			return nil, nil, 0, iters, false, fmt.Errorf("stats: ZIP zero M-step: %w", lerr)
		}
		gamma = lfit.Coef
	}
	lik = zipLogLik(countX, y, zeroX, beta, gamma)
	return beta, gamma, lik, iters, converged, nil
}

// TestZIPEMMatchesOracle pins zipEM, whose M-step runs the IRLS loops
// directly, to the reference EM that goes through the public regressions:
// coefficients and likelihood bit for bit, the same iteration count.
func TestZIPEMMatchesOracle(t *testing.T) {
	type design struct {
		name          string
		countX, zeroX *Matrix
		y             []float64
	}
	var cases []design
	for _, seed := range []uint64{1, 2, 3} {
		countX, y, zeroX := simulateZIP(rng.New(600+seed), 800, []float64{0.9, 0.4, -0.3}, []float64{-0.4, 0.7})
		cases = append(cases, design{fmt.Sprintf("simulated/seed%d", seed), countX, zeroX, y})
	}
	// The intercept-only null model ZIPRegression fits for McFadden's R².
	countX, y, _ := simulateZIP(rng.New(611), 600, []float64{1.2}, []float64{0.3})
	cases = append(cases, design{"intercept-only", countX, countX, y})
	// No zero inflation at all: the zero model runs off towards pi → 0.
	pure := NewMatrix(500, 1)
	py := make([]float64, 500)
	src := rng.New(613)
	for i := range py {
		pure.Set(i, 0, 1)
		py[i] = float64(src.Poisson(3))
	}
	cases = append(cases, design{"pure-poisson", pure, pure, py})
	// Large counts exercise the lgamma terms far from 1.
	bigX, bigY, bigZ := simulateZIP(rng.New(617), 500, []float64{4, 0.5}, []float64{0.1})
	cases = append(cases, design{"large-counts", bigX, bigZ, bigY})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			beta, gamma, lik, iters, conv, err := zipEM(tc.countX, tc.y, tc.zeroX)
			if err != nil {
				t.Fatal(err)
			}
			wBeta, wGamma, wLik, wIters, wConv, err := zipEMReference(tc.countX, tc.y, tc.zeroX)
			if err != nil {
				t.Fatal(err)
			}
			if iters != wIters || conv != wConv {
				t.Fatalf("iters/converged = %d/%v, want %d/%v", iters, conv, wIters, wConv)
			}
			if math.Float64bits(lik) != math.Float64bits(wLik) {
				t.Fatalf("lik = %v, want %v", lik, wLik)
			}
			for _, block := range []struct {
				name      string
				got, want []float64
			}{{"beta", beta, wBeta}, {"gamma", gamma, wGamma}} {
				for j := range block.want {
					if math.Float64bits(block.got[j]) != math.Float64bits(block.want[j]) {
						t.Fatalf("%s[%d] = %v, want %v", block.name, j, block.got[j], block.want[j])
					}
				}
			}
		})
	}
}

// poissonIRLSReference is PoissonRegression's IRLS loop as it was before
// it moved into poissonIRLS, evaluating PoissonLogPMF (and its Lgamma) per
// row on every iteration. It is the oracle for poissonIRLS, which the ZIP
// M-step and the public regression share.
func poissonIRLSReference(x *Matrix, y, weights []float64) (irlsFit, error) {
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	beta[0] = math.Log(weightedMean(y, weights) + 1e-9)

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
			mu := math.Exp(eta)
			w[i] = wi * mu
			if mu > 0 {
				z[i] = eta + (y[i]-mu)/mu
			} else {
				z[i] = eta
			}
			if wi > 0 {
				lik += wi * PoissonLogPMF(int(math.Round(y[i])), mu)
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

// TestPoissonIRLSMatchesOracle pins poissonIRLS, with its precomputed
// lgamma terms, to the per-row PoissonLogPMF loop: unweighted, with the
// fractional weights of a ZIP M-step (some zero), and with a fractional
// response, which the loop rounds.
func TestPoissonIRLSMatchesOracle(t *testing.T) {
	countX, y, _ := simulateZIP(rng.New(631), 700, []float64{0.7, 0.5, -0.2}, []float64{0.2})
	src := rng.New(633)
	weights := make([]float64, len(y))
	frac := make([]float64, len(y))
	for i := range weights {
		if !src.Bool(0.1) {
			weights[i] = src.Float64()
		}
		frac[i] = y[i] + src.Float64()
	}
	for _, tc := range []struct {
		name       string
		y, weights []float64
	}{{"unweighted", y, nil}, {"weighted", y, weights}, {"fractional", frac, weights}} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := poissonIRLS(countX, tc.y, tc.weights, countLgammas(tc.y))
			if err != nil {
				t.Fatal(err)
			}
			want, err := poissonIRLSReference(countX, tc.y, tc.weights)
			if err != nil {
				t.Fatal(err)
			}
			if got.iters != want.iters || got.converged != want.converged {
				t.Fatalf("iters/converged = %d/%v, want %d/%v", got.iters, got.converged, want.iters, want.converged)
			}
			for _, v := range []struct {
				name      string
				got, want []float64
			}{{"coef", got.coef, want.coef}, {"w", got.w, want.w}} {
				for j := range v.want {
					if math.Float64bits(v.got[j]) != math.Float64bits(v.want[j]) {
						t.Fatalf("%s[%d] = %v, want %v", v.name, j, v.got[j], v.want[j])
					}
				}
			}
		})
	}
}
