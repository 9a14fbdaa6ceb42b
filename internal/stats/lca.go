package stats

import (
	"encoding/binary"
	"fmt"
	"math"

	"turnup/internal/rng"
)

// LCAResult is a fitted latent class model for multivariate count data:
// a mixture of K classes, each emitting D independent Poisson counts.
// This is the modelling engine behind the paper's Latent Transition Model
// (§5.1): each user-month is an observation, the D dimensions are the
// make/take counts per contract type, and the classes are the 12 behaviour
// types of Table 6.
type LCAResult struct {
	K, D       int
	Weights    []float64   // class mixing proportions, length K
	Rates      [][]float64 // K × D Poisson rates (the Table 6 matrix)
	LogLik     float64
	AIC, BIC   float64
	N          int
	Iters      int
	Converged  bool
	Posterior  [][]float64 // N × K responsibilities
	Assignment []int       // MAP class per observation
}

const (
	lcaMaxIter = 300
	lcaTol     = 1e-7
	lcaRateEps = 1e-6 // floor on rates: keeps log-PMFs finite for zero-rate cells
)

// FitLCA fits a K-class independent-Poisson mixture to data (N × D counts)
// by EM with random-responsibility initialisation.
//
// The kernel computes bit for bit what a direct EM over every row and cell
// computes (fitLCAReference in the tests keeps that version as the oracle)
// while doing far less work: the E-step runs once per distinct row with
// precomputed log-rates and per-cell lgamma constants, and the M-step skips
// zero counts. DESIGN.md §3.9 states which sums keep their order and why.
func FitLCA(data [][]float64, k int, src *rng.Source) (*LCAResult, error) {
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
			if !(v >= 0 && v < maxCount) {
				return nil, fmt.Errorf("stats: LCA count at (%d,%d) must be finite and non-negative, got %g", i, j, v)
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

	// A row's posterior depends only on its counts, so the E-step runs once
	// per distinct row (pattern) and rows read their pattern's posterior.
	rowOf, counts, lgc := lcaPatterns(data)
	m := len(lgc) / d
	post := make([]float64, m*k) // pattern × class responsibilities
	lse := make([]float64, m)    // pattern log-likelihoods
	logW := make([]float64, k)
	logRate := make([]float64, k*d)
	logp := make([]float64, k)
	wsum := make([]float64, k)
	num := make([]float64, d*k) // M-step numerators, dimension-major
	prev := math.Inf(-1)
	for iter := 1; iter <= lcaMaxIter; iter++ {
		res.Iters = iter
		// E-step in log space. Each cell is PoissonLogPMF(int(v), rate)
		// from hoisted parts; rates are floored at lcaRateEps > 0, so its
		// lambda <= 0 branch never runs.
		for c := 0; c < k; c++ {
			logW[c] = math.Log(weights[c])
			for j, r := range rates[c] {
				logRate[c*d+j] = math.Log(r)
			}
		}
		for p := 0; p < m; p++ {
			cnt, lg := counts[p*d:(p+1)*d], lgc[p*d:(p+1)*d]
			for c := 0; c < k; c++ {
				lp := logW[c]
				lr, rc := logRate[c*d:(c+1)*d], rates[c]
				for j, v := range cnt {
					lp += poissonLogPMFFrom(v, rc[j], lr[j], lg[j])
				}
				logp[c] = lp
			}
			lse[p] = logSumExp(logp)
			for c, lp := range logp {
				post[p*k+c] = math.Exp(lp - lse[p])
			}
		}
		lik := 0.0
		for _, p := range rowOf {
			lik += lse[p]
		}
		if math.Abs(lik-prev) < lcaTol*(math.Abs(lik)+1) {
			res.Converged = true
			res.LogLik = lik
			break
		}
		prev = lik
		res.LogLik = lik

		// M-step. Rows are the outer loop, so every accumulator still adds
		// its terms in row order; a zero count adds +0 and is skipped.
		clear(wsum)
		clear(num)
		for i, row := range data {
			pp := post[rowOf[i]*k : (rowOf[i]+1)*k]
			for c, pc := range pp {
				wsum[c] += pc
			}
			for j, v := range row {
				if v == 0 {
					continue
				}
				nj := num[j*k : (j+1)*k]
				for c, pc := range pp {
					nj[c] += pc * v
				}
			}
		}
		for c := 0; c < k; c++ {
			wc := wsum[c]
			weights[c] = wc / float64(n)
			if wc > 0 {
				for j := 0; j < d; j++ {
					rates[c][j] = math.Max(num[j*k+c]/wc, lcaRateEps)
				}
			}
		}
	}

	res.Weights = weights
	res.Rates = rates
	res.Posterior = make([][]float64, n)
	res.Assignment = make([]int, n)
	flat := make([]float64, n*k)
	for i, p := range rowOf {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		copy(row, post[p*k:(p+1)*k])
		res.Posterior[i] = row
		best, bestP := 0, row[0]
		for c := 1; c < k; c++ {
			if row[c] > bestP {
				best, bestP = c, row[c]
			}
		}
		res.Assignment[i] = best
	}
	params := float64(k - 1 + k*d)
	res.AIC = -2*res.LogLik + 2*params
	res.BIC = -2*res.LogLik + params*math.Log(float64(n))
	return res, nil
}

// lcaPatterns collapses rows with identical float64 bits into patterns.
// rowOf[i] is row i's pattern; for pattern p and dimension j,
// counts[p*d+j] is float64(int(v)) and lgc[p*d+j] is Lgamma of that plus
// one: the count-only terms of PoissonLogPMF(int(v), ·).
func lcaPatterns(data [][]float64) (rowOf []int, counts, lgc []float64) {
	d := len(data[0])
	rowOf = make([]int, len(data))
	seen := make(map[string]int)
	key := make([]byte, 8*d)
	for i, row := range data {
		for j, v := range row {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(v))
		}
		p, ok := seen[string(key)]
		if !ok {
			p = len(seen)
			seen[string(key)] = p
			for _, v := range row {
				kf := float64(int(v))
				lg, _ := math.Lgamma(kf + 1)
				counts = append(counts, kf)
				lgc = append(lgc, lg)
			}
		}
		rowOf[i] = p
	}
	return rowOf, counts, lgc
}

func logSumExp(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// SelectLCA sweeps the class count over [kMin, kMax] with nRestarts EM runs
// per k (best log-likelihood kept), returning the fit minimising BIC and
// all per-k fits. The paper selects 12 classes by AIC/BIC parsimony.
func SelectLCA(data [][]float64, kMin, kMax, nRestarts int, src *rng.Source) (best *LCAResult, fits map[int]*LCAResult, err error) {
	if kMin < 1 {
		kMin = 1
	}
	if nRestarts < 1 {
		nRestarts = 1
	}
	fits = make(map[int]*LCAResult)
	for k := kMin; k <= kMax; k++ {
		var bestK *LCAResult
		for r := 0; r < nRestarts; r++ {
			fit, ferr := FitLCA(data, k, src.Fork(uint64(k*1000+r)))
			if ferr != nil {
				return nil, nil, ferr
			}
			if bestK == nil || fit.LogLik > bestK.LogLik {
				bestK = fit
			}
		}
		fits[k] = bestK
		if best == nil || bestK.BIC < best.BIC {
			best = bestK
		}
	}
	return best, fits, nil
}

// Classify returns the MAP class under the fitted model for a new
// observation, without refitting.
func (m *LCAResult) Classify(row []float64) int {
	best, bestLP := 0, math.Inf(-1)
	for c := 0; c < m.K; c++ {
		lp := math.Log(m.Weights[c])
		for j, v := range row {
			lp += PoissonLogPMF(int(v), m.Rates[c][j])
		}
		if lp > bestLP {
			best, bestLP = c, lp
		}
	}
	return best
}

// TransitionMatrix estimates a latent transition matrix from per-period
// class assignments: entry (a, b) is P(class b at t+1 | class a at t),
// estimated from all consecutive-period pairs in the sequences. Sequences
// map an entity ID to its ordered class assignments; negative class values
// mark periods where the entity is absent and are skipped (no transition is
// counted across a gap unless bridgeGaps is true).
func TransitionMatrix(sequences map[string][]int, k int, bridgeGaps bool) [][]float64 {
	counts := make([][]float64, k)
	for i := range counts {
		counts[i] = make([]float64, k)
	}
	for _, seq := range sequences {
		prev := -1
		for _, c := range seq {
			if c < 0 || c >= k {
				if !bridgeGaps {
					prev = -1
				}
				continue
			}
			if prev >= 0 {
				counts[prev][c]++
			}
			prev = c
		}
	}
	for a := range counts {
		total := 0.0
		for _, v := range counts[a] {
			total += v
		}
		if total > 0 {
			for b := range counts[a] {
				counts[a][b] /= total
			}
		}
	}
	return counts
}
