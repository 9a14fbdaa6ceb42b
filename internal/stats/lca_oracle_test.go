package stats

import (
	"fmt"
	"math"
	"testing"

	"turnup/internal/rng"
)

// fitLCAReference is the straightforward EM kernel FitLCA replaced, kept
// verbatim as the oracle its fast rewrite must match bit for bit: every
// row and every cell of the E-step calls PoissonLogPMF, and the M-step
// sums over all rows once per (class, dimension).
func fitLCAReference(data [][]float64, k int, src *rng.Source) (*LCAResult, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("stats: LCA on empty data")
	}
	d := len(data[0])
	if d == 0 {
		return nil, fmt.Errorf("stats: LCA with zero dimensions")
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("stats: ragged LCA data at row %d", i)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("stats: negative count at (%d,%d)", i, j)
			}
		}
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("stats: LCA k=%d with n=%d", k, n)
	}

	res := &LCAResult{K: k, D: d, N: n}
	// Initialise rates from randomly perturbed k-means-ish seeds: pick k
	// random rows as rate anchors, blended with the global mean.
	global := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			global[j] += v
		}
	}
	for j := range global {
		global[j] /= float64(n)
	}
	rates := make([][]float64, k)
	for c := range rates {
		anchor := data[src.Intn(n)]
		rates[c] = make([]float64, d)
		for j := range rates[c] {
			rates[c][j] = math.Max(0.7*anchor[j]+0.3*global[j]+0.05*src.Float64(), lcaRateEps)
		}
	}
	weights := make([]float64, k)
	for c := range weights {
		weights[c] = 1 / float64(k)
	}

	post := make([][]float64, n)
	for i := range post {
		post[i] = make([]float64, k)
	}
	logp := make([]float64, k)
	prev := math.Inf(-1)
	for iter := 1; iter <= lcaMaxIter; iter++ {
		res.Iters = iter
		// E-step in log space.
		lik := 0.0
		for i, row := range data {
			for c := 0; c < k; c++ {
				lp := math.Log(weights[c])
				for j, v := range row {
					lp += PoissonLogPMF(int(v), rates[c][j])
				}
				logp[c] = lp
			}
			lse := logSumExp(logp)
			lik += lse
			for c := 0; c < k; c++ {
				post[i][c] = math.Exp(logp[c] - lse)
			}
		}
		if math.Abs(lik-prev) < lcaTol*(math.Abs(lik)+1) {
			res.Converged = true
			res.LogLik = lik
			break
		}
		prev = lik
		res.LogLik = lik

		// M-step.
		for c := 0; c < k; c++ {
			wc := 0.0
			for i := range data {
				wc += post[i][c]
			}
			weights[c] = wc / float64(n)
			for j := 0; j < d; j++ {
				num := 0.0
				for i, row := range data {
					num += post[i][c] * row[j]
				}
				if wc > 0 {
					rates[c][j] = math.Max(num/wc, lcaRateEps)
				}
			}
		}
	}

	res.Weights = weights
	res.Rates = rates
	res.Posterior = post
	res.Assignment = make([]int, n)
	for i := range post {
		best, bestP := 0, post[i][0]
		for c := 1; c < k; c++ {
			if post[i][c] > bestP {
				best, bestP = c, post[i][c]
			}
		}
		res.Assignment[i] = best
	}
	params := float64(k - 1 + k*d)
	res.AIC = -2*res.LogLik + 2*params
	res.BIC = -2*res.LogLik + params*math.Log(float64(n))
	return res, nil
}

// lcaDiff reports the first way got differs from want, comparing every
// float by its bits, or "" when the two fits are identical.
func lcaDiff(got, want *LCAResult) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.K != want.K || got.D != want.D || got.N != want.N {
		return fmt.Sprintf("shape K,D,N = %d,%d,%d, want %d,%d,%d", got.K, got.D, got.N, want.K, want.D, want.N)
	}
	if got.Iters != want.Iters || got.Converged != want.Converged {
		return fmt.Sprintf("iters/converged = %d/%v, want %d/%v", got.Iters, got.Converged, want.Iters, want.Converged)
	}
	if !same(got.LogLik, want.LogLik) || !same(got.AIC, want.AIC) || !same(got.BIC, want.BIC) {
		return fmt.Sprintf("loglik/AIC/BIC = %v/%v/%v, want %v/%v/%v", got.LogLik, got.AIC, got.BIC, want.LogLik, want.AIC, want.BIC)
	}
	for c := range want.Weights {
		if !same(got.Weights[c], want.Weights[c]) {
			return fmt.Sprintf("weight %d = %v, want %v", c, got.Weights[c], want.Weights[c])
		}
		for j := range want.Rates[c] {
			if !same(got.Rates[c][j], want.Rates[c][j]) {
				return fmt.Sprintf("rate (%d,%d) = %v, want %v", c, j, got.Rates[c][j], want.Rates[c][j])
			}
		}
	}
	if len(got.Posterior) != len(want.Posterior) || len(got.Assignment) != len(want.Assignment) {
		return fmt.Sprintf("%d posterior rows, %d assignments, want %d, %d", len(got.Posterior), len(got.Assignment), len(want.Posterior), len(want.Assignment))
	}
	for i := range want.Posterior {
		if got.Assignment[i] != want.Assignment[i] {
			return fmt.Sprintf("assignment %d = %d, want %d", i, got.Assignment[i], want.Assignment[i])
		}
		for c := range want.Posterior[i] {
			if !same(got.Posterior[i][c], want.Posterior[i][c]) {
				return fmt.Sprintf("posterior (%d,%d) = %v, want %v", i, c, got.Posterior[i][c], want.Posterior[i][c])
			}
		}
	}
	return ""
}

// checkLCAOracle fits data with FitLCA and with the reference kernel from
// identical streams and fails unless the fits agree bit for bit.
func checkLCAOracle(t *testing.T, data [][]float64, k int, seed uint64) {
	t.Helper()
	got, err := FitLCA(data, k, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fitLCAReference(data, k, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if diff := lcaDiff(got, want); diff != "" {
		t.Fatalf("k=%d seed=%d: %s", k, seed, diff)
	}
}

// TestFitLCAMatchesOracle pins FitLCA to the reference kernel on synthetic
// data; TestFitLCAMatchesOracleUserMonths covers the paper's user-month
// matrices.
func TestFitLCAMatchesOracle(t *testing.T) {
	rates := [][]float64{{0.2, 3, 0, 1}, {6, 0.5, 2, 0}, {1, 1, 9, 4}}
	for _, seed := range []uint64{1, 2, 3} {
		data, _ := mixtureData(rng.New(500+seed), 600, []float64{0.5, 0.3, 0.2}, rates)
		for _, k := range []int{1, 2, 6, 12} {
			t.Run(fmt.Sprintf("mixture/seed%d/k%d", seed, k), func(t *testing.T) {
				checkLCAOracle(t, data, k, seed*100+uint64(k))
			})
		}
	}

	// Fractional counts: the kernel truncates to int(v) in the E-step but
	// the M-step weighs by the float count.
	frac, _ := mixtureData(rng.New(521), 400, []float64{0.6, 0.4}, [][]float64{{1, 5, 0.3}, {7, 0.4, 2}})
	src := rng.New(523)
	for _, row := range frac {
		for j := range row {
			if src.Bool(0.5) {
				row[j] += src.Float64()
			}
		}
	}
	t.Run("fractional", func(t *testing.T) { checkLCAOracle(t, frac, 3, 7) })

	// Negative zeros: distinct bits from +0, the same count.
	negz, _ := mixtureData(rng.New(531), 400, []float64{0.5, 0.5}, [][]float64{{0.2, 4}, {3, 0.1}})
	for i, row := range negz {
		for j, v := range row {
			if v == 0 && (i+j)%2 == 0 {
				row[j] = math.Copysign(0, -1)
			}
		}
	}
	t.Run("negative-zero", func(t *testing.T) { checkLCAOracle(t, negz, 2, 9) })

	// Every row distinct: nothing to collapse.
	distinct := make([][]float64, 300)
	for i := range distinct {
		distinct[i] = []float64{float64(i), float64(i % 7), float64((i * 13) % 11)}
	}
	t.Run("all-distinct", func(t *testing.T) { checkLCAOracle(t, distinct, 4, 11) })

	// A handful of patterns, each repeated many times, in shuffled order.
	patterns := [][]float64{{0, 0, 1}, {1, 0, 0}, {0, 2, 0}, {5, 1, 3}, {0, 0, 0}}
	dup := make([][]float64, 1000)
	src = rng.New(541)
	for i := range dup {
		dup[i] = append([]float64(nil), patterns[src.Intn(len(patterns))]...)
	}
	t.Run("duplicate-heavy", func(t *testing.T) { checkLCAOracle(t, dup, 3, 13) })

	// k == n: one class per row.
	t.Run("k-equals-n", func(t *testing.T) { checkLCAOracle(t, distinct[:12], 12, 17) })
}
