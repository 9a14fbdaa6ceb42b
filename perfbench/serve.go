package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"turnup/internal/rng"
)

// Workload shapes. serve-cold's rate keeps one shard well below the
// two-core capacity measured for the parent, so latency reflects service
// time rather than a growing backlog. The p99 limits are ones the parent
// meets at these rates on a 2-core machine.
const (
	coldRate       = 8.0 // serve-cold reads/s
	coldP99LimitMS = 1000.0
	// coldCapacityCeiling sizes the pool of fresh seeds for the closed
	// loop: it covers up to this many completions per second.
	coldCapacityCeiling = 30.0

	// mixRate is the serve-mix request rate, all kinds together: the
	// default rate of the repository's load benchmark (make bench-load,
	// LOAD_RPS).
	mixRate       = 50.0
	mixP99LimitMS = 1000.0

	mixHeadShare = 0.6  // share of the upload corpus in the first upload
	mixBatchSize = 1    // contracts per append, as in internal/load's event batches
	mixResultKiB = 1024 // per-shard result-cache budget
	mixRenderKiB = 512  // per-shard render-cache budget
	// setUpRuns is how many times a serving workload launches and uploads;
	// set-up takes tens of milliseconds, so many are cheap.
	setUpRuns = 15
	// Shares of --seconds spent with nproc requests outstanding.
	capacityShare    = 1.0 / 3
	mixCapacityShare = 0.2
)

// read is one report request of a workload.
type read struct {
	path    string // URL path and query
	seed    uint64 // generated corpus seed; 0 for dataset reads
	section string // "" for the full report
	dataset bool   // ?dataset= read, checked against its generation
	json    bool
	gzip    bool
	inm     bool // revalidate with the last ETag received for this URL
}

// observed is what came back for one read.
type observed struct {
	rd       *read
	status   int
	gen      uint64
	text     string // sha256 of the report text
	etag     string
	sentETag string
	xcache   string
	shard    string
	gzipped  bool
	due      time.Time
	latency  time.Duration // from the scheduled send time
	connWait time.Duration
	err      string
}

// reader issues reads and keeps what is needed to verify them later.
type reader struct {
	client *http.Client
	base   string
	tr     *tracer

	mu     sync.Mutex
	etags  map[string]string // path → last ETag received with a body
	obs    []observed
	sample *sampleBody // the first text 200 response, for the corruption self-test
}

func newReader(base string, conns int, tr *tracer) *reader {
	return &reader{client: newClient(conns), base: base, tr: tr, etags: map[string]string{}}
}

// do sends rd, which was due at due, and records the outcome.
func (l *reader) do(rd *read, due time.Time) observed {
	span := l.tr.begin("serve.GET", 0)
	defer l.tr.end(span)
	req, err := http.NewRequest("GET", l.base+rd.path, nil)
	if err != nil {
		return l.keep(observed{rd: rd, err: err.Error()})
	}
	if rd.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	o := observed{rd: rd}
	if rd.inm {
		l.mu.Lock()
		o.sentETag = l.etags[rd.path]
		l.mu.Unlock()
		if o.sentETag != "" {
			req.Header.Set("If-None-Match", o.sentETag)
		}
	}
	r := exchange(l.client, req)
	o.due, o.latency, o.connWait = due, time.Since(due), r.connWait
	if r.err != nil {
		o.err = r.err.Error()
		return l.keep(o)
	}
	o.status, o.etag = r.status, r.header.Get("ETag")
	o.xcache, o.shard = r.header.Get("X-Cache"), r.header.Get("X-Shard")
	o.gzipped = r.header.Get("Content-Encoding") == "gzip"
	o.gen, _ = strconv.ParseUint(r.header.Get("X-Dataset-Generation"), 10, 64)
	if r.status == http.StatusOK {
		text, err := reportText(r, rd.json)
		if err != nil {
			o.err = err.Error()
			return l.keep(o)
		}
		o.text = sha(text)
		l.mu.Lock()
		l.etags[rd.path] = o.etag
		if l.sample == nil && !rd.json { // every byte of a text body is compared
			l.sample = &sampleBody{o: o, header: r.header, raw: r.body}
		}
		l.mu.Unlock()
	}
	return l.keep(o)
}

func (l *reader) keep(o observed) observed {
	l.mu.Lock()
	l.obs = append(l.obs, o)
	l.mu.Unlock()
	return o
}

// loadStats describes how well the generator kept its schedule.
type loadStats struct {
	lateness []time.Duration
}

// openLoop fires n operations at a fixed rate from start, each due at a
// seeded point within a tenth of a period of its slot's middle, without
// waiting for earlier ones to finish. fire gets the operation's index and
// due time. It returns once every operation has completed.
func openLoop(start time.Time, n int, rate float64, src *rng.Source, fire func(i int, due time.Time)) loadStats {
	period := time.Duration(float64(time.Second) / rate)
	var st loadStats
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		jitter := time.Duration((src.Float64()*2 - 1) * 0.1 * float64(period))
		due := start.Add(time.Duration(i)*period + period/2 + jitter)
		time.Sleep(time.Until(due))
		st.lateness = append(st.lateness, max(0, time.Since(due)))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	return st
}

// segments is how many parts a measured phase is split into. Each figure
// is the median over the parts of the part's figure, so a stall elsewhere
// on a shared machine moves one part rather than the figure.
const segments = 5

// closedLoop keeps conns operations outstanding until d has passed or next
// returns nil. It returns completions per second: completions after the
// first over the time since it.
func closedLoop(d time.Duration, conns int, next func() *read, l *reader) float64 {
	start := time.Now()
	var mu sync.Mutex
	var first, last time.Time
	done := 0
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				rd := next()
				mu.Unlock()
				if rd == nil {
					return
				}
				l.do(rd, time.Now())
				mu.Lock()
				if done == 0 {
					first = time.Now()
				}
				last = time.Now()
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if done < 2 {
		return 0
	}
	return float64(done-1) / last.Sub(first).Seconds()
}

// medianOf applies stat to each group of samples and returns the median of
// the results.
func medianOf(groups [][]float64, stat func([]float64) float64) float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, stat(g))
	}
	return median(out)
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// readStats folds groups of reads into p50 and p99 latency in
// milliseconds, each the median over the groups of the group's figure,
// and the p99 over all reads.
func readStats(groups [][]observed) (p50ms, p99ms, pooledP99ms float64) {
	var lat [][]float64
	var all []float64
	for _, g := range groups {
		var xs []float64
		for _, o := range g {
			xs = append(xs, ms(o.latency))
		}
		lat = append(lat, xs)
		all = append(all, xs...)
	}
	return medianOf(lat, p50), medianOf(lat, p99), p99(all)
}

// runTime is the servers' pipeline run time between two snapshots: the
// seconds spent computing reports, and how many reports.
func runTime(before, after []snapshot) (secs, runs float64) {
	for i := range after {
		secs += after[i]["serve_run_seconds"].Value - before[i]["serve_run_seconds"].Value
		runs += float64(after[i]["serve_run_seconds"].Count - before[i]["serve_run_seconds"].Count)
	}
	return secs, runs
}

// serveLayerNames are the per-layer metrics that only a serving workload
// (or only serve-mix, for ring.* and the append latency) produces; the
// others report them as 0.
var serveLayerNames = []string{
	"serve.result_hit_ratio", "serve.render_hit_ratio", "serve.evictions", "serve.rejected",
	"serve.coalesced", "serve.cache_bytes", "serve.render_cache_bytes", "serve.run_p50_ms",
	"serve.run_p99_ms", "serve.queue_ms", "serve.not_modified_share", "serve.gzip_share",
	"ring.overhead_ms", "ring.retries", "ring.hedges", "ring.shard_share",
	"load.lateness_p99_ms", "load.client_wait_ms", "ingest.append_p99_ms",
}

func zeroServeLayers(m map[string]float64) {
	for _, name := range serveLayerNames {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
}

// serveLayers derives the serve.* and load.* metrics from the shards'
// /metrics before and after the measured phases and from the reads.
func serveLayers(before, after []snapshot, obs []observed, st loadStats) map[string]float64 {
	delta := func(name string) float64 {
		total := 0.0
		for i := range after {
			total += after[i][name].Value - before[i][name].Value
		}
		return total
	}
	gauge := func(name string) float64 {
		total := 0.0
		for _, s := range after {
			total += s[name].Value
		}
		return total
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	hits, misses, coalesced := delta("serve_cache_hits_total"), delta("serve_cache_misses_total"), delta("serve_cache_coalesced_total")
	m["serve.result_hit_ratio"] = ratio(hits, hits+misses+coalesced)
	rh, rm := delta("serve_render_cache_hits_total"), delta("serve_render_cache_misses_total")
	m["serve.render_hit_ratio"] = ratio(rh, rh+rm)
	m["serve.evictions"] = delta("serve_cache_evictions_total") + delta("serve_render_cache_evictions_total")
	m["serve.rejected"] = delta("serve_cache_rejected_total") + delta("serve_render_cache_rejected_total")
	m["serve.coalesced"] = coalesced
	m["serve.cache_bytes"] = gauge("serve_cache_bytes")
	m["serve.render_cache_bytes"] = gauge("serve_render_cache_bytes")
	for _, s := range after {
		run := s["serve_run_seconds"]
		m["serve.run_p50_ms"] = max(m["serve.run_p50_ms"], run.Quantiles[0]*1e3)
		m["serve.run_p99_ms"] = max(m["serve.run_p99_ms"], run.Quantiles[3]*1e3)
	}
	runs := 0.0
	for i := range after {
		runs += float64(after[i]["serve_run_seconds"].Count - before[i]["serve_run_seconds"].Count)
	}
	var missLat []float64
	var notModified, gzipped float64
	for _, o := range obs {
		if o.xcache == "miss" {
			missLat = append(missLat, ms(o.latency))
		}
		if o.status == http.StatusNotModified {
			notModified++
		}
		if o.gzipped {
			gzipped++
		}
	}
	m["serve.queue_ms"] = max(0, mean(missLat)-ratio(delta("serve_run_seconds")*1e3, runs))
	m["serve.not_modified_share"] = ratio(notModified, float64(len(obs)))
	m["serve.gzip_share"] = ratio(gzipped, float64(len(obs)))
	m["load.lateness_p99_ms"] = quantile(durationsMS(st.lateness), 0.99)
	var wait []float64
	for _, o := range obs {
		wait = append(wait, ms(o.connWait))
	}
	m["load.client_wait_ms"] = mean(wait)
	return m
}

// startServers launches one hfserved per name, and hfrouter over them when
// routed, returning the processes in start order (router last).
func startServers(cfg config, names []string, routed bool, shardArgs ...string) ([]*proc, error) {
	var ps []*proc
	var urls string
	for _, name := range names {
		addr, err := freeAddr()
		if err != nil {
			stopAll(ps)
			return nil, err
		}
		args := append([]string{"-shard", "http://" + addr, "-pprof", "-log-format", "none"}, shardArgs...)
		p, err := startProc(cfg, "hfserved", name, addr, args...)
		if err != nil {
			stopAll(ps)
			return nil, err
		}
		ps = append(ps, p)
		if urls != "" {
			urls += ","
		}
		urls += p.url
	}
	if routed {
		addr, err := freeAddr()
		if err != nil {
			stopAll(ps)
			return nil, err
		}
		p, err := startProc(cfg, "hfrouter", "hfrouter", addr, "-shards", urls, "-log-format", "none")
		if err != nil {
			stopAll(ps)
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// setUp launches the servers and uploads the seed corpus setUpRuns times,
// keeping the last deployment, and returns the median launch-to-uploaded
// time. Every upload must store a new dataset at generation 1.
func setUp(cfg config, names []string, routed bool, split *splitCorpus, t *tally, shardArgs ...string) (ps []*proc, id string, setupS float64, err error) {
	head, users := contractsCSV(split.head), split.usersCSV()
	admin := newClient(2)
	var times []float64
	for i := 0; i < setUpRuns; i++ {
		stopAll(ps)
		start := time.Now()
		if ps, err = startServers(cfg, names, routed, shardArgs...); err != nil {
			return nil, "", 0, err
		}
		var gen uint64
		var status int
		id, gen, status, err = upload(admin, ps[len(ps)-1].url, head, users)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			stopAll(ps)
			return nil, "", 0, err
		}
		t.check(status == http.StatusCreated && gen == 1, "upload answered %d at generation %d, want 201 at 1", status, gen)
	}
	return ps, id, median(times), nil
}

// scrapeAll snapshots /metrics of every process.
func scrapeAll(c *http.Client, ps []*proc) ([]snapshot, error) {
	var out []snapshot
	for _, p := range ps {
		s, err := scrape(c, p.url)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// heapOf sums the post-collection live heap of the given processes.
func heapOf(c *http.Client, ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		h, err := liveHeapMiB(c, p.url)
		if err != nil {
			return 0, err
		}
		total += h
	}
	return total, nil
}

func coldPath(seed uint64) string {
	return fmt.Sprintf("/v1/report?seed=%d&scale=%g&models=false", seed, corpusScale)
}

// runServeCold drives one hfserved with reads that all miss both caches:
// an open loop at coldRate and a closed loop with nproc outstanding, taking
// turns in five rounds.
func runServeCold(cfg config, tr *tracer, t *tally) (*outcome, error) {
	split, err := newSplit(uploadSeed, mixHeadShare, mixBatchSize)
	if err != nil {
		return nil, err
	}

	// Untimed: render the reference of every key the run may read, and
	// leave out seeds whose report has no single correct render.
	nproc := runtime.NumCPU()
	openDur := time.Duration(float64(cfg.seconds) * (1 - capacityShare))
	n := int(coldRate * openDur.Seconds())
	pool := int(coldCapacityCeiling * (cfg.seconds - openDur).Seconds())
	rs := newRefStore(split)
	seeds, skipped, err := rs.pickSeeds(1_000_000+cfg.seed*100_000, n+pool, []string{""})
	if err != nil {
		return nil, err
	}

	ps, _, setupS, err := setUp(cfg, []string{"hfserved"}, false, split, t)
	if err != nil {
		return nil, err
	}
	defer stopAll(ps)
	srv := ps[0]
	admin := newClient(2)
	before, err := scrapeAll(admin, ps)
	if err != nil {
		return nil, err
	}

	// Five rounds, each an open-loop part then a closed-loop part, so that
	// both figures are medians over parts spread across the whole run.
	l := newReader(srv.url, nproc, tr)
	perRound := n / segments
	reads := make([]read, perRound*segments)
	for i := range reads {
		reads[i] = read{path: coldPath(seeds[i]), seed: seeds[i]}
	}
	rest := seeds[len(reads):]
	next := func() *read {
		if len(rest) == 0 {
			return nil
		}
		s := rest[0]
		rest = rest[1:]
		return &read{path: coldPath(s), seed: s}
	}
	src := rng.New(cfg.seed)
	var st loadStats
	var rounds [][]observed
	var openObs []observed
	var caps []float64
	var runSecs, runs float64
	for r := 0; r < segments; r++ {
		b, err := scrapeAll(admin, ps)
		if err != nil {
			return nil, err
		}
		mark := len(l.obs)
		rst := openLoop(time.Now(), perRound, coldRate, src, func(i int, due time.Time) { l.do(&reads[r*perRound+i], due) })
		st.lateness = append(st.lateness, rst.lateness...)
		rounds = append(rounds, append([]observed(nil), l.obs[mark:]...))
		openObs = append(openObs, l.obs[mark:]...)
		a, err := scrapeAll(admin, ps)
		if err != nil {
			return nil, err
		}
		secs, n := runTime(b, a)
		runSecs, runs = runSecs+secs, runs+n
		caps = append(caps, closedLoop((cfg.seconds-openDur)/segments, nproc, next, l))
	}
	poolLeft := len(rest)

	after, err := scrapeAll(admin, ps)
	if err != nil {
		return nil, err
	}
	heap, err := heapOf(admin, ps)
	if err != nil {
		return nil, err
	}
	stopAll(ps)

	if err := verifyReads(l.obs, rs, t, l.sample); err != nil {
		return nil, err
	}
	p50ms, p99ms, pooledP99 := readStats(rounds)
	out := &outcome{
		e2e: map[string]float64{
			"setup_s": setupS, "report_s": runSecs / runs, "p50_ms": p50ms, "p99_ms": p99ms,
			"capacity_rps": median(caps), "heap_mib": heap,
		},
		record: map[string]any{
			"read_rate_per_s":   coldRate,
			"p99_limit_ms":      coldP99LimitMS,
			"p99_within_limit":  p99ms <= coldP99LimitMS,
			"open_loop_reads":   len(openObs),
			"pooled_p99_ms":     pooledP99,
			"capacity_reads":    len(l.obs) - len(openObs),
			"connections":       nproc,
			"cache_budgets":     "hfserved defaults: -cache 64, -max-cache-bytes 1 GiB, -render-cache-bytes 64 MiB",
			"tie_skipped_seeds": skipped,
			"capacity_pool":     pool,
			"pool_exhausted":    poolLeft == 0,
			"lateness_p99_ms":   quantile(durationsMS(st.lateness), 0.99),
			"scale":             corpusScale,
			"upload_scale":      uploadScale,
		},
	}
	if cfg.trace {
		layers, err := probeLayers(tr, cfg)
		if err != nil {
			return nil, err
		}
		for k, v := range serveLayers(before, after, openObs, st) {
			layers[k] = v
		}
		zeroServeLayers(layers)
		out.layers = layers
	}
	return out, nil
}
