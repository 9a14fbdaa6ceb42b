package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"turnup"
	"turnup/internal/rng"
)

// referenceFile holds the SHA-256 of every reproduce render, recorded from
// a build whose output is trusted; the run under test is checked against
// it, never against itself.
const referenceFile = "perfbench/reference.json"

// goldenCanary is the repository's committed full-suite render (Seed 7,
// Scale 0.02, K 6), re-rendered untimed at the start of every reproduce run.
const goldenCanary = "testdata/golden_suite_seed7_scale0.02_k6.txt"

type reference struct {
	Scale   float64           `json:"scale"`
	K       int               `json:"k"`
	Renders map[string]string `json:"renders"` // corpus seed → sha256 of RenderAll
}

// report is one cold report: Generate → Run → RenderAll, each step in a
// span. With k > 0 it is the paper-style report, the full suite with models
// at that latent-class count; k == 0 skips the models (models=false).
func report(tr *tracer, parent int, seed uint64, k int) (string, error) {
	id := tr.begin("bench.report", parent)
	defer tr.end(id)
	var d *turnup.Dataset
	var res *turnup.Results
	var err error
	timed(tr, id, "market.Generate", func() { d, err = turnup.Generate(turnup.Config{Seed: seed, Scale: corpusScale}) })
	if err != nil {
		return "", err
	}
	timed(tr, id, "analysis.Run", func() {
		res, err = turnup.Run(d, turnup.RunOptions{Seed: seed, SkipModels: k == 0, LatentClassK: k, Workers: runtime.GOMAXPROCS(0)})
	})
	if err != nil {
		return "", fmt.Errorf("seed %d: %w", seed, err)
	}
	var out string
	timed(tr, id, "report.RenderAll", func() { out = turnup.RenderAll(res) })
	return out, nil
}

// setUpSeed is the corpus seed of the set-up report.
const setUpSeed = 7

// firstReport launches a fresh perfbench process that makes one report
// (setUpSeed, K=12) and exits, so the report pays the lazy initialisation
// of a first report in a process. It returns the time from launch to exit
// and the SHA-256 of the render the process printed.
func firstReport() (float64, string, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	out, err := exec.Command(self, "--first-report").Output()
	return time.Since(start).Seconds(), strings.TrimSpace(string(out)), err
}

func sha(s []byte) string {
	h := sha256.Sum256(s)
	return hex.EncodeToString(h[:])
}

// writeReference records this build's reproduce renders as the reference.
func writeReference(root string) error {
	ref := reference{Scale: corpusScale, K: 12, Renders: map[string]string{}}
	for _, seed := range modelSeeds {
		out, err := report(nil, 0, seed, ref.K)
		if err != nil {
			return err
		}
		ref.Renders[strconv.FormatUint(seed, 10)] = sha([]byte(out))
	}
	return writeJSONFile(filepath.Join(root, referenceFile), ref)
}

func loadReference(root string) (*reference, error) {
	b, err := os.ReadFile(filepath.Join(root, referenceFile))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return &ref, nil
}

// runReproduce is the batch workload: whole cycles over modelSeeds, in an
// order drawn from the workload seed, until the run time is spent.
func runReproduce(cfg config, tr *tracer, t *tally) (*outcome, error) {
	ref, err := loadReference(cfg.root)
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(cfg.root, goldenCanary))
	if err != nil {
		return nil, err
	}

	// Set-up: a first report in a fresh process, three times; the median
	// is kept so one slow start does not decide the figure.
	var setup []float64
	for i := 0; i < 3; i++ {
		secs, got, err := firstReport()
		if err != nil {
			return nil, fmt.Errorf("set-up report: %w", err)
		}
		setup = append(setup, secs)
		t.check(got == ref.Renders[strconv.Itoa(setUpSeed)], "set-up report seed %d differs from %s", setUpSeed, referenceFile)
	}

	// Untimed canary against the committed golden render.
	canary, err := report(tr, 0, setUpSeed, 6)
	if err != nil {
		return nil, err
	}
	t.check(canary == string(golden), "golden canary differs from %s", goldenCanary)
	t.check(corruptionCounted([]byte(canary), func(b []byte) bool { return string(b) == string(golden) }),
		"self-test: a one-byte corruption of the canary was not counted as a failure")

	order := append([]uint64(nil), modelSeeds...)
	src := rng.New(cfg.seed)
	for i := len(order) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var lat []time.Duration
	var cycles [][]float64 // per-report latency in milliseconds, by cycle
	start := time.Now()
	for len(cycles) == 0 || time.Since(start) < cfg.seconds {
		var cycle []float64
		for _, seed := range order {
			s0 := time.Now()
			out, err := report(tr, 0, seed, 12)
			lat = append(lat, time.Since(s0))
			cycle = append(cycle, ms(lat[len(lat)-1]))
			if err != nil {
				t.fail("report seed %d: %v", seed, err)
				continue
			}
			want := ref.Renders[strconv.FormatUint(seed, 10)]
			t.check(sha([]byte(out)) == want, "report seed %d differs from %s", seed, referenceFile)
		}
		cycles = append(cycles, cycle)
	}
	wall := time.Since(start)

	out := &outcome{
		e2e: map[string]float64{
			"setup_s":      median(setup),
			"report_s":     wall.Seconds() / float64(len(lat)),
			"p50_ms":       medianOf(cycles, p50),
			"p99_ms":       medianOf(cycles, p99),
			"capacity_rps": float64(len(lat)) / wall.Seconds(),
			"heap_mib":     inProcessHeapMiB(),
		},
		record: map[string]any{
			"reports":    len(lat),
			"seed_cycle": order,
			"scale":      corpusScale,
			"k":          12,
			"workers":    runtime.GOMAXPROCS(0),
			"setup_runs": setup,
		},
	}
	if cfg.trace {
		if out.layers, err = probeLayers(tr, cfg); err != nil {
			return nil, err
		}
		zeroServeLayers(out.layers)
	}
	return out, nil
}

// inProcessHeapMiB is the live heap after a forced collection.
func inProcessHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
