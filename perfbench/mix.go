package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"turnup/internal/load"
	"turnup/internal/rng"
)

// mixShape is the request blend of serve-mix: internal/load's DefaultMix,
// the blend the repository's own load generator sends by default. Per 13
// requests it holds 6 hot reads, 1 cold read, 2 section reads, 1 upload,
// 2 dataset reads and 1 event append. serve-mix sends it at mixRate.
var mixShape = load.DefaultMix()

// mixPerSecond is the rate of the request kinds that make up n of every
// mixShape block.
func mixPerSecond(n int) float64 {
	m := mixShape
	return mixRate * float64(n) / float64(m.Hot+m.Cold+m.Section+m.Upload+m.Dataset+m.Events)
}

// hotSections are the sections internal/load reads by default
// (Config.Sections): hot reads ask for the first, section reads cycle
// through all four.
var hotSections = []string{"growth", "corpus", "concentration", "payments"}

// mixKeys are the request families of serve-mix.
type mixKeys struct {
	hot     uint64   // the one seed of hot and section reads, as in internal/load
	dense   []uint64 // the keyspace larger than the result caches, full reports
	dataset string   // path of the full-history dataset read
	next    int      // position of the cyclic scan over dense
	section int      // position of the section rotation
}

func (k *mixKeys) sectionRead(section string, isJSON, gzip, inm bool) *read {
	path := fmt.Sprintf("/v1/report/%s?seed=%d&scale=%g&models=false", section, k.hot, corpusScale)
	if isJSON {
		path += "&format=json"
	}
	return &read{path: path, seed: k.hot, section: section, json: isJSON, gzip: gzip, inm: inm}
}

// hotRead draws one read of section in one of four equally likely forms:
// plain text, revalidated with If-None-Match, asking for gzip, or JSON.
func (k *mixKeys) hotRead(section string, src *rng.Source) *read {
	switch src.Intn(4) {
	case 0:
		return k.sectionRead(section, false, false, false)
	case 1:
		return k.sectionRead(section, false, false, true)
	case 2:
		return k.sectionRead(section, false, true, false)
	default:
		return k.sectionRead(section, true, false, false)
	}
}

// block draws the reads of one mixShape block in a seeded order: the hot
// reads of the first section, the section reads rotating through all four,
// the cold slot as the next full report of a scan over the dense keyspace,
// and the full-history dataset reads. The scan follows the warm-up's order
// over a keyspace larger than both caches, so LRU has evicted each key
// before its turn and each of those reads computes its report. Fixing the
// composition of every block keeps the share of cache misses the same from
// run to run.
func (k *mixKeys) block(src *rng.Source) []*read {
	var b []*read
	for i := 0; i < mixShape.Hot; i++ {
		b = append(b, k.hotRead(hotSections[0], src))
	}
	for i := 0; i < mixShape.Section; i++ {
		b = append(b, k.hotRead(hotSections[k.section%len(hotSections)], src))
		k.section++
	}
	for i := 0; i < mixShape.Cold; i++ {
		b = append(b, &read{path: coldPath(k.dense[k.next%len(k.dense)]), seed: k.dense[k.next%len(k.dense)]})
		k.next++
	}
	for i := 0; i < mixShape.Dataset; i++ {
		b = append(b, &read{path: k.dataset, dataset: true})
	}
	src.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// runServeMix drives hfrouter over two hfserved shards with small cache
// budgets: an open loop of mixShape at mixRate (reads, one serialized
// writer, and re-uploads of the seed corpus) and hot reads alone with
// nproc outstanding, taking turns in five rounds.
func runServeMix(cfg config, tr *tracer, t *tally) (*outcome, error) {
	split, tiedCorpora, err := mixCorpus(cfg)
	if err != nil {
		return nil, err
	}
	rs := newRefStore(split)
	// The key sets are the same in every run, so the cache and shard
	// geometry is too; the workload seed draws the request sequence.
	hot, skippedHot, err := rs.pickSeeds(2_000_000, 1, hotSections)
	if err != nil {
		return nil, err
	}
	// The dense keyspace holds one key per cold slot of the open loop, so
	// every run computes the same reports; it is about twice what the
	// two shards' caches hold.
	openDur := time.Duration(float64(cfg.seconds) * (1 - mixCapacityShare))
	readsPerBlock := mixShape.Hot + mixShape.Cold + mixShape.Section + mixShape.Dataset
	readRate := mixPerSecond(readsPerBlock)
	n := int(readRate * openDur.Seconds())
	denseKeys := (n + readsPerBlock - 1) / readsPerBlock * mixShape.Cold
	dense, skippedDense, err := rs.pickSeeds(3_000_000, denseKeys, []string{""})
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.seed)
	src.Shuffle(len(dense), func(i, j int) { dense[i], dense[j] = dense[j], dense[i] })
	keys := &mixKeys{hot: hot[0], dense: dense}

	shardArgs := []string{"-max-cache-bytes", strconv.Itoa(mixResultKiB << 10), "-render-cache-bytes", strconv.Itoa(mixRenderKiB << 10)}
	ps, id, setupS, err := setUp(cfg, []string{"hfserved-a", "hfserved-b"}, true, split, t, shardArgs...)
	if err != nil {
		return nil, err
	}
	defer stopAll(ps)
	shards, router := ps[:2], ps[2]
	admin := newClient(2)
	nproc := runtime.NumCPU()

	keys.dataset = fmt.Sprintf("/v1/report?dataset=%s&seed=1&models=false", id)

	// Warm-up, untimed: every hot section in both formats, every dense key
	// once, and the dataset, so the measured phases start from full caches.
	warm := newReader(router.url, nproc, nil)
	var wreads []*read
	for _, section := range hotSections {
		wreads = append(wreads, keys.sectionRead(section, false, false, false), keys.sectionRead(section, true, false, false))
	}
	for _, seed := range keys.dense {
		wreads = append(wreads, &read{path: coldPath(seed), seed: seed})
	}
	wreads = append(wreads, &read{path: keys.dataset, dataset: true})
	closedLoop(time.Hour, nproc, func() *read {
		if len(wreads) == 0 {
			return nil
		}
		rd := wreads[0]
		wreads = wreads[1:]
		return rd
	}, warm)

	before, err := scrapeAll(admin, ps)
	if err != nil {
		return nil, err
	}

	// Five rounds, each a part of the open-loop mix then a part of hot
	// reads with nproc outstanding, so that every figure is a median over
	// parts spread across the whole run.
	l := newReader(router.url, nproc, tr)
	var reads []*read
	for len(reads) < n {
		reads = append(reads, keys.block(src)...)
	}
	perRound, roundDur := n/segments, openDur/segments
	uploadRate := mixPerSecond(mixShape.Upload)
	uploadsPerRound := int(uploadRate * roundDur.Seconds())
	head, users := contractsCSV(split.head), split.usersCSV()
	upClient := newClient(nproc)
	readSrc, writeSrc, uploadSrc := rng.New(cfg.seed+1), rng.New(cfg.seed+2), rng.New(cfg.seed+3)
	hotNext := func() *read { return keys.hotRead(hotSections[src.Intn(len(hotSections))], src) }
	var st loadStats
	var rounds [][]observed
	var openObs []observed
	var writes, caps []float64
	var runSecs, runs float64
	appended := 0
	for r := 0; r < segments; r++ {
		b, err := scrapeAll(admin, shards)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(roundDur))
		var bg sync.WaitGroup
		bg.Add(2)
		go func() { // the one serialized writer
			defer bg.Done()
			lat := mixWriter(ctx, start, writeSrc, router.url, id, split, appended, t, tr)
			writes, appended = append(writes, lat...), appended+len(lat)
		}()
		go func() { // re-uploads of the seed corpus, which dedupe
			defer bg.Done()
			openLoop(start, uploadsPerRound, uploadRate, uploadSrc, func(int, time.Time) {
				span := tr.begin("serve.POST.upload", 0)
				gotID, _, status, err := upload(upClient, router.url, head, users)
				tr.end(span)
				t.check(err == nil && status == http.StatusOK && gotID == id,
					"re-upload: status %d id %q err %v, want 200 and %q", status, gotID, err, id)
			})
		}()
		mark := len(l.obs)
		rst := openLoop(start, perRound, readRate, readSrc, func(i int, due time.Time) { l.do(reads[r*perRound+i], due) })
		bg.Wait()
		cancel()
		st.lateness = append(st.lateness, rst.lateness...)
		rounds = append(rounds, append([]observed(nil), l.obs[mark:]...))
		openObs = append(openObs, l.obs[mark:]...)
		a, err := scrapeAll(admin, shards)
		if err != nil {
			return nil, err
		}
		secs, k := runTime(b, a)
		runSecs, runs = runSecs+secs, runs+k
		caps = append(caps, closedLoop((cfg.seconds-openDur)/segments, nproc, hotNext, l))
	}

	after, err := scrapeAll(admin, ps)
	if err != nil {
		return nil, err
	}
	var overhead float64
	if cfg.trace {
		if overhead, err = ringOverhead(router.url, keys.sectionRead(hotSections[0], false, false, false)); err != nil {
			return nil, err
		}
	}
	heap, err := heapOf(admin, shards)
	if err != nil {
		return nil, err
	}
	stopAll(ps)

	if err := verifyReads(append(warm.obs, l.obs...), rs, t, l.sample); err != nil {
		return nil, err
	}
	p50ms, p99ms, pooledP99 := readStats(rounds)
	out := &outcome{
		e2e: map[string]float64{
			"setup_s": setupS, "report_s": runSecs / runs, "p50_ms": p50ms, "p99_ms": p99ms,
			"capacity_rps": median(caps), "heap_mib": heap,
		},
		record: map[string]any{
			"mix":                 mixShape,
			"request_rate_per_s":  mixRate,
			"read_rate_per_s":     readRate,
			"write_rate_per_s":    mixPerSecond(mixShape.Events),
			"upload_rate_per_s":   uploadRate,
			"p99_limit_ms":        mixP99LimitMS,
			"p99_within_limit":    p99ms <= mixP99LimitMS,
			"open_loop_reads":     len(openObs),
			"pooled_p99_ms":       pooledP99,
			"capacity_reads":      len(l.obs) - len(openObs),
			"warmup_reads":        len(warm.obs),
			"appends":             len(writes),
			"reuploads":           uploadsPerRound * segments,
			"write_p50_ms":        quantile(writes, 0.5),
			"write_p99_ms":        quantile(writes, 0.99),
			"connections":         nproc,
			"cache_budgets":       fmt.Sprintf("per shard: -max-cache-bytes %d KiB, -render-cache-bytes %d KiB, -cache 64", mixResultKiB, mixRenderKiB),
			"hot_seed":            keys.hot,
			"hot_sections":        hotSections,
			"tie_skipped_seeds":   skippedHot + skippedDense,
			"tie_skipped_corpora": tiedCorpora,
			"dense_keys":          denseKeys,
			"batch_contracts":     mixBatchSize,
			"window_reads":        "excluded: values/value-trend row order under ties is not deterministic at the parent (analysis.tie_order_variants)",
			"lateness_p99_ms":     quantile(durationsMS(st.lateness), 0.99),
			"scale":               corpusScale,
			"upload_scale":        uploadScale,
			"upload_head_share":   mixHeadShare,
			"upload_contracts":    len(split.head),
			"streamable_batches":  len(split.batches),
		},
	}
	if cfg.trace {
		layers, err := probeLayers(tr, cfg)
		if err != nil {
			return nil, err
		}
		for k, v := range serveLayers(before[:2], after[:2], openObs, st) {
			layers[k] = v
		}
		routerDelta := func(name string) float64 { return after[2][name].Value - before[2][name].Value }
		layers["ring.retries"] = routerDelta("router_retries_total")
		layers["ring.hedges"] = routerDelta("router_hedges_total")
		layers["ring.overhead_ms"] = overhead
		layers["ring.shard_share"] = largestShare(openObs)
		layers["ingest.append_p99_ms"] = quantile(writes, 0.99)
		out.layers = layers
	}
	return out, nil
}

// mixWriter appends the split's batches in order from batch from on, one
// at a time, each due at its seeded slot of the mixShape event rate from
// start, until the batches run out or ctx ends. It returns each append's
// latency from its due time in milliseconds.
func mixWriter(ctx context.Context, start time.Time, src *rng.Source, base, id string, split *splitCorpus, from int, t *tally, tr *tracer) []float64 {
	c := newClient(1)
	period := time.Duration(float64(time.Second) / mixPerSecond(mixShape.Events))
	count := len(split.head)
	for _, b := range split.batches[:from] {
		count += len(b)
	}
	var lat []float64
	for i := from; i < len(split.batches); i++ {
		b := split.batches[i]
		// A seeded point within the slot, rather than its start, keeps the
		// writes from locking into one alignment with the reads for a run.
		due := start.Add(time.Duration((float64(i-from) + src.Float64()) * float64(period)))
		select {
		case <-ctx.Done():
			return lat
		case <-time.After(time.Until(due)):
		}
		body := contractsCSV(b)
		count += len(b)
		span := tr.begin("ingest.POST", 0)
		r := appendEvents(context.Background(), c, base, id, body)
		lat = append(lat, ms(time.Since(due)))
		tr.end(span)
		want := uint64(i) + 2
		t.check(r.err == nil && r.status == http.StatusOK && r.gen == want && r.contracts == count,
			"append %d: status %d generation %d contracts %d err %v, want 200, %d, %d", i+1, r.status, r.gen, r.contracts, r.err, want, count)
	}
	return lat
}

// largestShare is the share of reads answered by the busiest shard.
func largestShare(obs []observed) float64 {
	by := map[string]int{}
	for _, o := range obs {
		by[o.shard]++
	}
	top := 0
	for _, n := range by {
		top = max(top, n)
	}
	if len(obs) == 0 {
		return 0
	}
	return float64(top) / float64(len(obs))
}

// ringOverhead is the median latency of a routed hot read minus the median
// of the same read sent straight to the shard that answered it, over 25
// alternating pairs on an otherwise idle tier.
func ringOverhead(routerURL string, rd *read) (float64, error) {
	c := newClient(1)
	var routed, direct []float64
	shard := ""
	for i := 0; i < 25; i++ {
		for _, base := range []string{routerURL, shard} {
			if base == "" {
				continue
			}
			req, err := http.NewRequest("GET", base+rd.path, nil)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			r := exchange(c, req)
			d := ms(time.Since(start))
			if r.err != nil || r.status != http.StatusOK {
				return 0, fmt.Errorf("ring overhead probe %s: status %d err %v", base+rd.path, r.status, r.err)
			}
			if base == routerURL {
				routed = append(routed, d)
				shard = r.header.Get("X-Shard")
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(routed) - median(direct), nil
}
