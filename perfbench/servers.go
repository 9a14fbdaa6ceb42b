package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proc is one system-under-test process on a loopback port.
type proc struct {
	url string
	cmd *exec.Cmd
	log *os.File
}

// running holds every started process until it is stopped, so an
// interrupted run can still stop them (see stopRunning).
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// stopRunning stops every process not stopped yet.
func stopRunning() {
	running.Lock()
	var ps []*proc
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	stopAll(ps)
}

// freeAddr reserves a loopback port and releases it for the child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc launches the binary bin from cfg.bin as name with args, logging
// to <out>/<name>.log, and waits until GET /healthz answers 200.
func startProc(cfg config, bin, name, addr string, args ...string) (*proc, error) {
	lf, err := os.Create(filepath.Join(cfg.out, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{url: "http://" + addr, cmd: cmd, log: lf}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not become ready on %s", name, addr)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// it has not drained within ten seconds.
func (p *proc) stop() {
	running.Lock()
	live := running.procs[p]
	delete(running.procs, p)
	running.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
}

// stopAll stops every process, last started first.
func stopAll(ps []*proc) {
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// newClient returns an HTTP client with at most conns connections per host
// that leaves Accept-Encoding to the caller and never decompresses.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status   int
	header   http.Header
	body     []byte
	err      error
	connWait time.Duration // from sending to holding a connection
}

// exchange performs req and reads the whole body.
func exchange(c *http.Client, req *http.Request) reply {
	var sent, got time.Time
	trace := &httptrace.ClientTrace{
		GetConn: func(string) { sent = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { got = time.Now() },
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, header: resp.Header, body: body, err: err}
	if !sent.IsZero() && !got.IsZero() {
		r.connWait = got.Sub(sent)
	}
	return r
}

// reportText returns the report text a response carries: the body, gunzipped
// when it was sent compressed, or the report field of a JSON envelope.
func reportText(r reply, isJSON bool) ([]byte, error) {
	body := r.body
	if r.header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	if !isJSON {
		return body, nil
	}
	var env struct {
		Report *string `json:"report"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Report == nil {
		return nil, errors.New("JSON response without a report field")
	}
	return []byte(*env.Report), nil
}

// upload posts the split's head corpus as a multipart CSV pair and returns
// the stored dataset's id and generation.
func upload(c *http.Client, base string, contracts, users []byte) (id string, gen uint64, status int, err error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range []struct {
		field string
		data  []byte
	}{{"contracts", contracts}, {"users", users}} {
		w, err := mw.CreateFormFile(f.field, f.field+".csv")
		if err != nil {
			return "", 0, 0, err
		}
		if _, err := w.Write(f.data); err != nil {
			return "", 0, 0, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", 0, 0, err
	}
	req, err := http.NewRequest("POST", base+"/v1/datasets?format=json", &body)
	if err != nil {
		return "", 0, 0, err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	r := exchange(c, req)
	if r.err != nil {
		return "", 0, 0, r.err
	}
	var resp struct {
		Dataset struct {
			ID         string `json:"id"`
			Generation uint64 `json:"generation"`
		} `json:"dataset"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return "", 0, r.status, fmt.Errorf("upload answered %d: %s", r.status, r.body)
	}
	return resp.Dataset.ID, resp.Dataset.Generation, r.status, nil
}

// appendReply is the checked part of an event-append response.
type appendReply struct {
	status    int
	gen       uint64
	contracts int
	err       error
}

// appendEvents posts one contract-CSV event batch to a dataset.
func appendEvents(ctx context.Context, c *http.Client, base, id string, body []byte) appendReply {
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/datasets/"+id+"/events", bytes.NewReader(body))
	if err != nil {
		return appendReply{err: err}
	}
	req.Header.Set("Content-Type", "text/csv")
	r := exchange(c, req)
	if r.err != nil {
		return appendReply{err: r.err}
	}
	var resp struct {
		Dataset struct {
			Contracts int `json:"contracts"`
		} `json:"dataset"`
	}
	_ = json.Unmarshal(r.body, &resp) // a malformed body fails the count check
	gen, _ := strconv.ParseUint(r.header.Get("X-Dataset-Generation"), 10, 64)
	return appendReply{status: r.status, gen: gen, contracts: resp.Dataset.Contracts}
}

// promMetric is one entry of a server's /metrics?format=json snapshot.
type promMetric struct {
	Name      string     `json:"name"`
	Value     float64    `json:"value"`
	Count     int        `json:"count"`
	Quantiles [4]float64 `json:"quantiles"` // p50, p90, p95, p99
}

type snapshot map[string]promMetric

func scrape(c *http.Client, base string) (snapshot, error) {
	req, err := http.NewRequest("GET", base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	r := exchange(c, req)
	if r.err != nil {
		return nil, r.err
	}
	var ms []promMetric
	if err := json.Unmarshal(r.body, &ms); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	s := snapshot{}
	for _, m := range ms {
		s[m.Name] = m
	}
	return s, nil
}

var heapAllocRE = regexp.MustCompile(`# HeapAlloc = (\d+)`)

// liveHeapMiB forces a collection in the server (pprof heap ?gc=1) and
// reads its HeapAlloc from the same response.
func liveHeapMiB(c *http.Client, base string) (float64, error) {
	req, err := http.NewRequest("GET", base+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	r := exchange(c, req)
	if r.err != nil {
		return 0, r.err
	}
	m := heapAllocRE.FindSubmatch(r.body)
	if m == nil {
		return 0, fmt.Errorf("%s: no HeapAlloc in the heap profile (status %d)", base, r.status)
	}
	n, err := strconv.ParseFloat(string(m[1]), 64)
	return n / (1 << 20), err
}
