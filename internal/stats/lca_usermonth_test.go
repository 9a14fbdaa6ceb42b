package stats_test

import (
	"fmt"
	"testing"

	"turnup/internal/analysis"
	"turnup/internal/market"
	"turnup/internal/rng"
	"turnup/internal/stats"
)

// userMonths returns the latent class model's input for a generated
// corpus: the per-user-month count rows LatentClasses fits (a one-class
// fit is the cheapest way to read them back).
func userMonths(tb testing.TB, seed uint64, scale float64) [][]float64 {
	tb.Helper()
	d, _, err := market.Generate(market.Config{Seed: seed, Scale: scale})
	if err != nil {
		tb.Fatal(err)
	}
	ltm, err := analysis.LatentClasses(d, analysis.LTMOptions{K: 1, Restarts: 1}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	data := make([][]float64, len(ltm.Obs))
	for i, o := range ltm.Obs {
		data[i] = o.Counts
	}
	return data
}

// TestFitLCAMatchesOracleUserMonths fits the paper's 12-class model to
// generated user-month matrices with FitLCA and with the reference kernel
// and requires bit-identical fits.
func TestFitLCAMatchesOracleUserMonths(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		scale float64
	}{{7, 0.02}, {3, 0.1}} {
		t.Run(fmt.Sprintf("seed%d/scale%g", tc.seed, tc.scale), func(t *testing.T) {
			data := userMonths(t, tc.seed, tc.scale)
			got, err := stats.FitLCA(data, 12, rng.New(tc.seed).Fork(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.FitLCAReference(data, 12, rng.New(tc.seed).Fork(1))
			if err != nil {
				t.Fatal(err)
			}
			if diff := stats.LCADiff(got, want); diff != "" {
				t.Fatalf("%d rows: %s", len(data), diff)
			}
		})
	}
}

var lcaSink *stats.LCAResult

func benchmarkLCA(b *testing.B, fit func([][]float64, int, *rng.Source) (*stats.LCAResult, error)) {
	data := userMonths(b, 3, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if lcaSink, err = fit(data, 12, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLCA and BenchmarkFitLCAReference time one 12-class fit of
// the Scale-0.1 user-month matrix with the fast and the reference kernel.
func BenchmarkFitLCA(b *testing.B)          { benchmarkLCA(b, stats.FitLCA) }
func BenchmarkFitLCAReference(b *testing.B) { benchmarkLCA(b, stats.FitLCAReference) }
