package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"turnup"
)

// refKey names one reference render: a generated corpus's section (""
// is the full report), or the full report of one dataset generation.
type refKey struct {
	seed    uint64
	section string
	gen     uint64 // > 0 for dataset reads
}

func keyOf(o observed) refKey {
	if o.rd.dataset {
		return refKey{gen: o.gen}
	}
	return refKey{seed: o.rd.seed, section: o.rd.section}
}

// refStore holds the reference render of every key a run may read,
// computed in process and untimed with nproc workers: generated corpora
// through Generate → Run → Render, dataset generations from the corpus
// parsed afresh from its CSV rows.
type refStore struct {
	split *splitCorpus
	sha   map[refKey]string
	tied  map[refKey]bool // the key's Values rows hold equal totals
}

func newRefStore(split *splitCorpus) *refStore {
	return &refStore{split: split, sha: map[refKey]string{}, tied: map[refKey]bool{}}
}

// ensure renders every key not rendered yet.
func (rs *refStore) ensure(keys []refKey) error {
	bySeed := map[uint64][]refKey{}
	for _, k := range keys {
		if _, ok := rs.sha[k]; !ok {
			bySeed[k.seed] = append(bySeed[k.seed], k) // dataset keys share seed 0
		}
	}
	var jobs [][]refKey
	for seed, ks := range bySeed {
		if seed != 0 {
			jobs = append(jobs, ks)
			continue
		}
		seen := map[refKey]bool{}
		for _, k := range ks { // one job per dataset generation
			if !seen[k] {
				seen[k] = true
				jobs = append(jobs, []refKey{k})
			}
		}
	}
	ch := make(chan []refKey)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ks := range ch {
				got, tied, err := renderKeys(ks, rs.split)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for k, v := range got {
					rs.sha[k], rs.tied[k] = v, tied
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return firstErr
}

func renderKeys(keys []refKey, split *splitCorpus) (map[refKey]string, bool, error) {
	var d *turnup.Dataset
	var err error
	seed := keys[0].seed
	runSeed := seed
	if seed == 0 {
		if split == nil {
			return nil, false, fmt.Errorf("dataset read without an upload corpus")
		}
		d, err = split.generation(int(keys[0].gen))
		runSeed = 1
	} else {
		d, err = turnup.Generate(turnup.Config{Seed: seed, Scale: corpusScale})
	}
	if err != nil {
		return nil, false, err
	}
	res, err := turnup.Run(d, turnup.RunOptions{Seed: runSeed, SkipModels: true})
	if err != nil {
		return nil, false, err
	}
	out := map[refKey]string{}
	for _, k := range keys {
		if k.section == "" {
			out[k] = sha([]byte(turnup.RenderAll(res)))
			continue
		}
		s, err := turnup.RenderString(res, k.section)
		if err != nil {
			return nil, false, err
		}
		out[k] = sha([]byte(s))
	}
	return out, tiedValues(res), nil
}

// tiedValues reports whether two rows of the §4.5 value tables carry the
// same total. The parent orders such rows by map iteration, so the values
// and value-trend sections of that corpus have no single correct render.
func tiedValues(res *turnup.Results) bool {
	seen := map[float64]bool{}
	for _, r := range res.Values.ActivityValues {
		if seen[r.TotalUSD()] {
			return true
		}
		seen[r.TotalUSD()] = true
	}
	seen = map[float64]bool{}
	for _, r := range res.Values.MethodValues {
		if seen[r.TotalUSD()] {
			return true
		}
		seen[r.TotalUSD()] = true
	}
	return false
}

// pickSeeds returns the first n seeds from base on whose corpus every read
// of sections ("" is the full report) has a single correct render, with
// their references rendered into rs, and how many seeds it skipped.
func (rs *refStore) pickSeeds(base uint64, n int, sections []string) ([]uint64, int, error) {
	var seeds []uint64
	skipped := 0
	for next := base; len(seeds) < n; {
		want := n - len(seeds)
		var keys []refKey
		for i := 0; i < want+want/16+1; i++ {
			for _, sec := range sections {
				keys = append(keys, refKey{seed: next + uint64(i), section: sec})
			}
		}
		if err := rs.ensure(keys); err != nil {
			return nil, 0, err
		}
		for i := 0; i < want+want/16+1 && len(seeds) < n; i++ {
			if rs.tied[refKey{seed: next + uint64(i), section: sections[0]}] {
				skipped++
			} else {
				seeds = append(seeds, next+uint64(i))
			}
		}
		next += uint64(want + want/16 + 1)
	}
	return seeds, skipped, nil
}

// verifyReads checks every observed read against its reference: 200
// bodies by their report text, 304s by carrying the ETag that was sent
// and that came with a body which verified. It then proves on one
// verified body that a one-byte corruption is counted as a failure.
func verifyReads(obs []observed, rs *refStore, t *tally, sample *sampleBody) error {
	var need []refKey
	for _, o := range obs {
		if o.err == "" && o.status == http.StatusOK {
			need = append(need, keyOf(o))
		}
	}
	if err := rs.ensure(need); err != nil {
		return err
	}
	refs := rs.sha
	verified := map[string]bool{} // path + ETag of bodies that matched
	for _, o := range obs {
		if o.err != "" || o.status != http.StatusOK {
			continue
		}
		ok := o.text == refs[keyOf(o)] && o.rd.dataset == (o.gen > 0)
		t.check(ok, "%s (generation %d): report differs from the reference", o.rd.path, o.gen)
		if ok {
			verified[o.rd.path+"\x00"+o.etag] = true
		}
	}
	for _, o := range obs {
		switch {
		case o.err != "":
			t.fail("%s: %s", o.rd.path, o.err)
		case o.status == http.StatusNotModified:
			t.check(o.sentETag != "" && o.etag == o.sentETag && verified[o.rd.path+"\x00"+o.etag],
				"%s: 304 with ETag %q after sending %q", o.rd.path, o.etag, o.sentETag)
		case o.status != http.StatusOK:
			t.fail("%s: status %d", o.rd.path, o.status)
		}
	}
	if sample != nil {
		want := refs[keyOf(sample.o)]
		t.check(corruptionCounted(sample.raw, func(raw []byte) bool {
			text, err := reportText(reply{header: sample.header, body: raw}, sample.o.rd.json)
			return err == nil && sha(text) == want
		}), "self-test: a one-byte corruption of a verified body was not counted as a failure")
	}
	return nil
}

// sampleBody is one raw 200 response kept for the corruption self-test.
type sampleBody struct {
	o      observed
	header http.Header
	raw    []byte
}

// corruptionCounted reports whether check accepts body and, with one byte
// flipped, counts it as a failed operation.
func corruptionCounted(body []byte, check func([]byte) bool) bool {
	if len(body) == 0 || !check(body) {
		return false
	}
	var probe tally
	bad := append([]byte(nil), body...)
	bad[len(bad)/2] ^= 0x01
	probe.check(check(bad), "corrupted body")
	return probe.failed == 1
}
