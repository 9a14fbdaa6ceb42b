// Command perfbench is the repository's benchmark: one workload per run,
// every operation checked against a reference the run under test did not
// produce, and one JSON result line on standard output.
//
// It is normally started through run.sh, which builds the programs first:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 15 --trace 0
//
// Workloads (see METRICS.md for the metric definitions and the layer each
// per-layer metric should move):
//
//	reproduce   in-process batch: Generate → full suite with models → RenderAll
//	serve-cold  open loop against one hfserved; every request misses both caches
//	serve-mix   open loop through hfrouter over two hfserved shards: hot and
//	            revalidated reads, a keyspace larger than the caches, dataset
//	            reads, one event writer, and deduplicating re-uploads
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the span log and self-time table
// are written under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports; BENCHMARK.json lists the
// same names.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"report_s":     "s",
	"p50_ms":       "ms",
	"p99_ms":       "ms",
	"capacity_rps": "req/s",
	"ok_share":     "fraction",
	"heap_mib":     "MiB",
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding hfserved and hfrouter
	out      string // directory for run records and traces
	root     string // repository root (the working directory)
}

// outcome is what a workload hands back to main.
type outcome struct {
	e2e    map[string]float64
	layers map[string]float64
	record map[string]any // workload-specific run-record fields
}

// tally counts attempted and failed operations and keeps the first few
// failure reasons for the run record.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check counts one operation as passed or failed.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "reproduce, serve-cold or serve-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 15, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes the span log")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the hfserved and hfrouter binaries")
	flag.StringVar(&cfg.out, "out", ".bench_build/runs", "directory for run records and span logs")
	updateRef := flag.Bool("update-reference", false, "rewrite perfbench/reference.json from this build's reproduce renders and exit")
	first := flag.Bool("first-report", false, "print the SHA-256 of one set-up report and exit (reproduce runs this in a fresh process to time set-up)")
	flag.Parse()
	if *first {
		out, err := report(nil, 0, setUpSeed, 12)
		if err != nil {
			fatal(err)
		}
		fmt.Println(sha([]byte(out)))
		return
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root = wd

	if *updateRef {
		if err := writeReference(cfg.root); err != nil {
			fatal(err)
		}
		return
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}

	// An interrupted run still stops the servers it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopRunning()
		os.Exit(1)
	}()

	if err := os.MkdirAll(cfg.out, 0o755); err != nil { // server logs go here too
		fatal(err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var t tally
	var out *outcome
	switch cfg.workload {
	case "reproduce":
		out, err = runReproduce(cfg, tr, &t)
	case "serve-cold":
		out, err = runServeCold(cfg, tr, &t)
	case "serve-mix":
		out, err = runServeMix(cfg, tr, &t)
	default:
		err = fmt.Errorf("unknown --workload %q (want reproduce, serve-cold or serve-mix)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	if t.attempted == 0 {
		fatal(errors.New("no operation was attempted"))
	}
	out.e2e["ok_share"] = 1 - float64(t.failed)/float64(t.attempted)

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for name, v := range out.layers {
			res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := out.e2e[name]
			if !ok {
				fatal(fmt.Errorf("workload %s did not measure %s", cfg.workload, name))
			}
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
	}

	rec := runRecord(cfg)
	for k, v := range out.record {
		rec[k] = v
	}
	rec["attempted"], rec["failed"], rec["failures"] = t.attempted, t.failed, t.reasons
	rec["metrics"] = res.Metrics
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
	if err := writeJSONFile(filepath.Join(cfg.out, name+".json"), rec); err != nil {
		fatal(err)
	}
	if tr != nil {
		table := tr.selfTimes()
		printSelfTimes(os.Stderr, table)
		doc := map[string]any{"record": rec, "self_times": table, "spans": tr.spans}
		if err := writeJSONFile(filepath.Join(cfg.out, name+"-spans.json"), doc); err != nil {
			fatal(err)
		}
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", r)
	}

	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runRecord holds what every result must state about where it was
// measured.
func runRecord(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     gitCommit(cfg.root),
		"source_sha": sourceDigest(cfg.root),
	}
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_bytes"), name == "render.bytes":
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		name == "suite.parallel_speedup", name == "trace.overhead":
		return "ratio"
	default:
		return "count"
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	stopRunning()
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
