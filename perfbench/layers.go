package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/ingest"
	"turnup/internal/textmine"
)

// corpusScale is the generation scale of every corpus the benchmark
// generates or requests by seed.
const corpusScale = 0.02

// uploadSeed and uploadScale generate the uploaded corpus: internal/load's
// default seed and upload scale (Config.Seed, Config.UploadScale). It is the
// same corpus in every run, like the hot and dense keys.
const (
	uploadSeed  = 1
	uploadScale = 0.01
)

// modelSeeds are the corpus seeds whose Scale-0.02 full suite (models at
// K=12) completes. Seeds such as 8, 10-13, 17 and 18 stop at the ZIP
// subgroup fit ("only N records") at this scale, which would make every
// report over them a failed operation rather than a measurement.
var modelSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 9}

// splitCorpus is a generated corpus cut in creation order: head (with every
// user) is uploaded, and batches stream the remaining contracts as event
// appends, so each append takes Index.Append's incremental path.
type splitCorpus struct {
	users   map[forum.UserID]*forum.User
	head    []*forum.Contract
	batches [][]*forum.Contract
}

// newSplit generates the seed's corpus at uploadScale and keeps headShare of its
// contracts, oldest first, in the head; the rest become batches of
// batchSize contracts.
func newSplit(seed uint64, headShare float64, batchSize int) (*splitCorpus, error) {
	d, err := turnup.Generate(turnup.Config{Seed: seed, Scale: uploadScale})
	if err != nil {
		return nil, err
	}
	cs := append([]*forum.Contract(nil), d.Contracts...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Created.Before(cs[j].Created) })
	n := int(float64(len(cs)) * headShare)
	s := &splitCorpus{users: d.Users, head: cs[:n]}
	for rest := cs[n:]; len(rest) > 0; {
		k := min(batchSize, len(rest))
		s.batches = append(s.batches, rest[:k])
		rest = rest[k:]
	}
	return s, nil
}

// mixCorpus is the serve-mix upload corpus: the first corpus, from
// uploadSeed on, none of whose generations reachable in a run of
// cfg.seconds has tied value rows (see tiedValues). It also returns how
// many corpora it passed over.
func mixCorpus(cfg config) (*splitCorpus, int, error) {
	openDur := time.Duration(float64(cfg.seconds) * (1 - mixCapacityShare))
	for skipped := 0; ; skipped++ {
		split, err := newSplit(uploadSeed+uint64(skipped)*1_000_003, mixHeadShare, mixBatchSize)
		if err != nil {
			return nil, 0, err
		}
		// Each of the rounds may start one append more than its share.
		gens := min(len(split.batches), int(mixPerSecond(mixShape.Events)*openDur.Seconds())+segments) + 1
		tied, err := split.tiedGenerations(gens)
		if err != nil || !tied {
			return split, skipped, err
		}
	}
}

// tiedGenerations reports whether any of the first gens generations has
// tied value rows. It extends one index incrementally, as the server does,
// and runs only the Values stage.
func (s *splitCorpus) tiedGenerations(gens int) (bool, error) {
	cur, err := s.generation(1)
	if err != nil {
		return false, err
	}
	ix := turnup.NewIndex(cur)
	for g := 1; g <= gens; g++ {
		if g > 1 {
			b := &ingest.Batch{Contracts: s.batches[g-2]}
			cur = ingest.Apply(cur, b)
			ix = ix.Append(cur, b.Contracts)
		}
		res, err := turnup.Run(cur, turnup.RunOptions{Seed: 1, SkipModels: true, Stages: []string{"Values"}, Index: ix})
		if err != nil {
			return false, err
		}
		if tiedValues(res) {
			return true, nil
		}
	}
	return false, nil
}

// csv renders contracts in the canonical contracts.csv form.
func contractsCSV(cs []*forum.Contract) []byte {
	var b bytes.Buffer
	_ = dataset.WriteContractsCSV(&b, cs) // a bytes.Buffer cannot fail
	return b.Bytes()
}

func (s *splitCorpus) usersCSV() []byte {
	var b bytes.Buffer
	_ = dataset.WriteUsersCSV(&b, s.users)
	return b.Bytes()
}

// generation returns the corpus as it stands after gen-1 appends (gen 1
// is the uploaded head), parsed afresh from its CSV form: the reference a
// served generation is checked against.
func (s *splitCorpus) generation(gen int) (*turnup.Dataset, error) {
	cs := append([]*forum.Contract(nil), s.head...)
	for _, b := range s.batches[:gen-1] {
		cs = append(cs, b...)
	}
	return turnup.ReadCSV(bytes.NewReader(contractsCSV(cs)), bytes.NewReader(s.usersCSV()))
}

// timed runs fn and returns its wall time, inside a span when tracing.
func timed(tr *tracer, parent int, name string, fn func()) time.Duration {
	id := tr.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.end(id)
	return d
}

// probeLayers measures each in-process layer from outside through its
// public functions. It is untimed with respect to the end-to-end metrics
// and runs only in traced runs.
func probeLayers(tr *tracer, cfg config) (map[string]float64, error) {
	seed := cfg.seed
	m := map[string]float64{}
	parent := tr.begin("bench.layers", 0)
	defer tr.end(parent)
	var err error

	// market and the analysis index: fresh corpora, so nothing is memoized.
	var gen, groups, classify []float64
	var d *turnup.Dataset
	for i := uint64(0); i < 3; i++ {
		gen = append(gen, ms(timed(tr, parent, "market.Generate", func() {
			d, err = turnup.Generate(turnup.Config{Seed: seed*3 + i + 1, Scale: corpusScale})
		})))
		if err != nil {
			return nil, err
		}
		ix := turnup.NewIndex(d)
		groups = append(groups, ms(timed(tr, parent, "analysis.Index.ByMonth", func() { ix.ByMonth() })))
		classify = append(classify, ms(timed(tr, parent, "analysis.Index.MoneyContracts", func() { ix.MoneyContracts() })))
	}
	m["market.generate_ms"], m["index.groups_ms"], m["index.classify_ms"] = median(gen), median(groups), median(classify)

	// textmine, per distinct obligation text.
	texts := distinctTexts(d)
	m["index.texts"] = float64(len(texts))
	var cls, ext []float64
	for i := 0; i < 3; i++ {
		cls = append(cls, float64(timed(tr, parent, "textmine.Classify", func() {
			for _, s := range texts {
				textmine.Classify(s)
			}
		}))/float64(time.Microsecond)/float64(len(texts)))
		ext = append(ext, float64(timed(tr, parent, "textmine.ExtractValues", func() {
			for _, s := range texts {
				textmine.ExtractValues(s)
			}
		}))/float64(time.Microsecond)/float64(len(texts)))
	}
	m["textmine.classify_us"], m["textmine.extract_us"] = median(cls), median(ext)

	// Stages: a Workers=1 full suite with the index pre-forced; the
	// Progress callback marks each stage's start.
	modelSeed := modelSeeds[seed%uint64(len(modelSeeds))]
	md, err := turnup.Generate(turnup.Config{Seed: modelSeed, Scale: corpusScale})
	if err != nil {
		return nil, err
	}
	ix := turnup.NewIndex(md)
	ix.MoneyContracts()
	var names []string
	var starts []time.Time
	var res *turnup.Results
	suite1 := timed(tr, parent, "analysis.Run.workers1", func() {
		res, err = turnup.Run(md, turnup.RunOptions{Seed: modelSeed, Workers: 1, Index: ix,
			Progress: func(stage string) {
				names = append(names, stage)
				starts = append(starts, time.Now())
			}})
	})
	if err != nil {
		return nil, err
	}
	end := time.Now()
	stageMS := map[string]float64{}
	for i, name := range names {
		next := end
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		stageMS[name] = ms(next.Sub(starts[i]))
	}
	for _, st := range turnup.Stages() {
		m["stage."+st.Name+"_ms"] = stageMS[st.Name]
	}
	m["suite.critical_path_ms"] = criticalPath(stageMS)
	md2, err := turnup.Generate(turnup.Config{Seed: modelSeed, Scale: corpusScale})
	if err != nil {
		return nil, err
	}
	ix2 := turnup.NewIndex(md2)
	ix2.MoneyContracts()
	suiteN := timed(tr, parent, "analysis.Run.workersN", func() {
		_, err = turnup.Run(md2, turnup.RunOptions{Seed: modelSeed, Workers: runtime.GOMAXPROCS(0), Index: ix2})
	})
	if err != nil {
		return nil, err
	}
	m["suite.parallel_speedup"] = float64(suite1) / float64(suiteN)

	// stats: exact counts from the Workers=1 results.
	zip := 0
	for _, e := range res.ZIPAll {
		zip += e.Model.Iters
	}
	for _, e := range res.ZIPSub {
		zip += e.Model.Iters
	}
	fit := res.LTM.Fit
	m["stats.lca_iters"], m["stats.zip_iters"] = float64(fit.Iters), float64(zip)
	m["stats.lca_cells"] = float64(fit.N * fit.K * fit.D)

	// report rendering.
	var render []float64
	var body string
	for i := 0; i < 5; i++ {
		render = append(render, ms(timed(tr, parent, "report.RenderAll", func() { body = turnup.RenderAll(res) })))
	}
	m["render.full_ms"], m["render.bytes"] = median(render), float64(len(body))

	// dataset codecs over the last descriptive corpus.
	var cbuf, ubuf bytes.Buffer
	if err := dataset.WriteContractsCSV(&cbuf, d.Contracts); err != nil {
		return nil, err
	}
	if err := dataset.WriteUsersCSV(&ubuf, d.Users); err != nil {
		return nil, err
	}
	var csvRead, digest, enc, dec []float64
	for i := 0; i < 3; i++ {
		var rd *turnup.Dataset
		csvRead = append(csvRead, ms(timed(tr, parent, "dataset.ReadCSV", func() {
			rd, err = turnup.ReadCSV(bytes.NewReader(cbuf.Bytes()), bytes.NewReader(ubuf.Bytes()))
		})))
		if err != nil {
			return nil, err
		}
		digest = append(digest, ms(timed(tr, parent, "dataset.Digest", func() { rd.Digest() })))
		var bin bytes.Buffer
		enc = append(enc, ms(timed(tr, parent, "dataset.EncodeBinary", func() { err = turnup.WriteBinary(&bin, rd) })))
		if err != nil {
			return nil, err
		}
		dec = append(dec, ms(timed(tr, parent, "dataset.DecodeBinary", func() { _, err = turnup.ReadBinary(&bin) })))
		if err != nil {
			return nil, err
		}
	}
	m["dataset.csv_read_ms"], m["dataset.digest_ms"] = median(csvRead), median(digest)
	m["dataset.binary_encode_ms"], m["dataset.binary_decode_ms"] = median(enc), median(dec)

	// ingest, per batch, and the tie-order probe, on the upload corpus as
	// generated: no filter for tied value rows applies here.
	split, err := newSplit(uploadSeed, mixHeadShare, mixBatchSize)
	if err != nil {
		return nil, err
	}
	steps, err := ingestBatches(tr, parent, split)
	if err != nil {
		return nil, err
	}
	for name, xs := range steps {
		m[name] = median(xs)
	}

	// tracing overhead: alternate traced and untraced descriptive reports.
	var plain, traced []float64
	for i := uint64(0); i < 6; i++ {
		for _, t := range []*tracer{nil, tr} {
			start := time.Now()
			if _, err := report(t, parent, seed*100+i%3+1, 0); err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, ms(time.Since(start)))
			} else {
				traced = append(traced, ms(time.Since(start)))
			}
		}
	}
	m["trace.overhead"] = median(traced) / median(plain)

	variants, err := tieOrderVariants(tr, parent, split)
	if err != nil {
		return nil, err
	}
	m["analysis.tie_order_variants"] = float64(variants)
	return m, nil
}

// distinctTexts lists the corpus's distinct non-empty obligation texts in
// first-seen order.
func distinctTexts(d *turnup.Dataset) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range d.Contracts {
		for _, s := range []string{c.MakerObligation, c.TakerObligation} {
			if s != "" && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// criticalPath is the longest chain of stage times along the declared
// dependencies.
func criticalPath(stageMS map[string]float64) float64 {
	finish := map[string]float64{}
	longest := 0.0
	for _, st := range turnup.Stages() { // canonical order is topological
		start := 0.0
		for _, dep := range st.Deps {
			start = max(start, finish[dep])
		}
		finish[st.Name] = start + stageMS[st.Name]
		longest = max(longest, finish[st.Name])
	}
	return longest
}

// ingestBatches appends every batch of split in process, timing each
// step, and checks the final corpus against one parsed from the same rows.
func ingestBatches(tr *tracer, parent int, split *splitCorpus) (map[string][]float64, error) {
	cur, err := split.generation(1)
	if err != nil {
		return nil, err
	}
	ix := turnup.NewIndex(cur)
	ix.MoneyContracts()
	steps := map[string][]float64{}
	for _, batch := range split.batches {
		body := contractsCSV(batch)
		var b *ingest.Batch
		steps["ingest.decode_ms"] = append(steps["ingest.decode_ms"], ms(timed(tr, parent, "ingest.DecodeBatch", func() {
			b, err = ingest.DecodeBatch("text/csv", bytes.NewReader(body))
		})))
		if err != nil {
			return nil, err
		}
		steps["ingest.validate_ms"] = append(steps["ingest.validate_ms"], ms(timed(tr, parent, "ingest.ValidateAgainst", func() {
			err = b.ValidateAgainst(cur)
		})))
		if err != nil {
			return nil, err
		}
		var nd *turnup.Dataset
		steps["ingest.apply_ms"] = append(steps["ingest.apply_ms"], ms(timed(tr, parent, "ingest.Apply", func() { nd = ingest.Apply(cur, b) })))
		steps["index.append_ms"] = append(steps["index.append_ms"], ms(timed(tr, parent, "analysis.Index.Append", func() { ix = ix.Append(nd, b.Contracts) })))
		cur = nd
	}
	want, err := split.generation(len(split.batches) + 1)
	if err != nil {
		return nil, err
	}
	if got, _ := cur.Digest(); got != digestOf(want) {
		return nil, fmt.Errorf("in-process ingest: appended corpus digest %s differs from the reference", got)
	}
	return steps, nil
}

func digestOf(d *turnup.Dataset) string {
	s, _ := d.Digest()
	return s
}

// tieOrderVariants renders the values and value-trend sections of the
// 30-day window of the upload corpus's first generation repeatedly and
// counts the distinct renders. The suite is deterministic by contract, so anything
// above 1 is the row-ordering defect that keeps ?window= reads out of the
// timed mix.
func tieOrderVariants(tr *tracer, parent int, split *splitCorpus) (int, error) {
	d, err := split.generation(1)
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	for i := 0; i < 19; i++ {
		wd, err := ingest.Window(d, "30d", "")
		if err != nil {
			return 0, err
		}
		var res *turnup.Results
		timed(tr, parent, "analysis.Run.window", func() {
			res, err = turnup.Run(wd, turnup.RunOptions{Seed: 1, SkipModels: true})
		})
		if err != nil {
			return 0, err
		}
		out, err := turnup.RenderString(res, "values", "value-trend")
		if err != nil {
			return 0, err
		}
		seen[out] = true
	}
	return len(seen), nil
}
