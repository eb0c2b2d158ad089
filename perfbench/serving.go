package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swcc/internal/core"
	"swcc/internal/gw"
	"swcc/internal/serve"
	"swcc/internal/sweep"
)

// The serving stack under test, booted in-process on loopback: cohered
// backends (serve.Server behind net/http) and, for gw_affinity, a
// coheregw gateway (gw.Gateway) in front of them. Every layer entry
// point is wrapped so a run can switch tracing on and off.

// traceSwitch holds the run's tracer, nil while tracing is off.
type traceSwitch = atomic.Pointer[tracer]

// discardLogger formats log lines like a deployment would but writes
// them nowhere, so the access-log cost stays in the measurement.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// spanHandler records a span named name around next.
func spanHandler(name string, next http.Handler, ts *traceSwitch) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := ts.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(name, r.Header.Get("X-Request-ID"), start, time.Now())
	})
}

// spanTransport records a "gw.backend" span per gateway-to-backend
// round trip, from the send until the response body is drained.
type spanTransport struct {
	next http.RoundTripper
	ts   *traceSwitch
}

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t := s.ts.Load()
	if t == nil {
		return s.next.RoundTrip(r)
	}
	start := time.Now()
	resp, err := s.next.RoundTrip(r)
	id := r.Header.Get("X-Request-ID")
	if err != nil {
		t.record("gw.backend", id, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.record("gw.backend", id, start, time.Now()) }}
	return resp, nil
}

// spanBody calls done once, at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// gatewayTransport matches the transport gw.Config builds by default.
func gatewayTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
	}
}

// httpServer serves h on an ephemeral loopback port until stop.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

func (s *httpServer) stop() {
	s.hs.Close()
	<-s.done
}

// backend is one in-process cohered.
type backend struct {
	srv  *serve.Server
	http *httpServer
}

func startBackend(cfg serve.Config, ts *traceSwitch) (*backend, error) {
	cfg.Logger = discardLogger()
	srv := serve.NewServer(cfg)
	hs, err := serveLoopback(spanHandler("serve", srv.Handler(), ts))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &backend{srv: srv, http: hs}, nil
}

func (b *backend) stop() {
	b.http.stop()
	b.srv.Close()
}

// gateway is one in-process coheregw.
type gateway struct {
	g       *gw.Gateway
	http    *httpServer
	cancel  context.CancelFunc
	runDone chan struct{}
}

func startGateway(backends []*backend, ts *traceSwitch) (*gateway, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.http.url
	}
	g, err := gw.New(gw.Config{
		Backends:  urls,
		Transport: spanTransport{next: gatewayTransport(), ts: ts},
		Logger:    discardLogger(),
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gt := &gateway{g: g, cancel: cancel, runDone: make(chan struct{})}
	go func() {
		defer close(gt.runDone)
		g.Run(ctx)
	}()
	g.CheckNow(ctx)
	if gt.http, err = serveLoopback(spanHandler("gw", g.Handler(), ts)); err != nil {
		gt.stopRun()
		return nil, err
	}
	return gt, nil
}

func (g *gateway) stopRun() {
	g.cancel()
	<-g.runDone
}

func (g *gateway) stop() {
	g.http.stop()
	g.stopRun()
}

// fleet is a serving workload's system under test.
type fleet struct {
	backends []*backend
	gw       *gateway
	ts       traceSwitch
}

// front is the handler clients reach: the gateway's if there is one.
func (f *fleet) front() http.Handler {
	if f.gw != nil {
		return f.gw.http.hs.Handler
	}
	return f.backends[0].http.hs.Handler
}

// target is the URL clients send to: the gateway if there is one.
func (f *fleet) target() string {
	if f.gw != nil {
		return f.gw.http.url
	}
	return f.backends[0].http.url
}

func (f *fleet) stop() {
	if f.gw != nil {
		f.gw.stop()
	}
	for _, b := range f.backends {
		b.stop()
	}
}

// bootFleet starts n backends with cfg and, when withGateway, a gateway.
func bootFleet(n int, cfg serve.Config, withGateway bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		b, err := startBackend(cfg, &f.ts)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	if withGateway {
		g, err := startGateway(f.backends, &f.ts)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gw = g
	}
	return f, nil
}

// conn is one client connection: its own transport, capped at one
// connection to the target.
type conn struct {
	tr   *http.Transport
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	return &conn{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole answer into the connection's
// buffer; the returned bytes are valid until the next call.
func (c *conn) do(method, path string, body []byte, id string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// reqID builds a request ID that carries the request's kind in its
// second letter, so per-kind handler spans need no side table.
func reqID(kind byte, conn int, n uint64) string {
	b := make([]byte, 0, 24)
	b = append(b, 'p', kind, '-')
	b = strconv.AppendInt(b, int64(conn), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, n, 10)
	return string(b)
}

// kindLetter is the request-ID letter of each request kind.
var kindLetter = map[string]byte{"point": 'p', "curve": 'c', "sweep": 's', "job_submit": 'j', "job_stream": 'r'}

// sampled is a response kept for the bit-identity check.
type sampled struct {
	req  request
	body []byte
}

// connStats is one connection's record of a window.
type connStats struct {
	latMs     []float64 // OK operations only
	attempted int
	failed    int
	rows      int
	samples   []sampled
	errs      []string
}

func (s *connStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// maxRate bounds one connection's requests per second, sizing its
// latency record up front: a record that grew with throughput would
// make heap_peak_mb follow the benchmark's own memory.
const maxRate = 15000

// maxSamples caps the responses one connection keeps for the
// bit-identity check: the first maxSamples the schedule marks.
const maxSamples = 200

// driveRequests is one closed-loop connection: it sends g's schedule
// back to back until the deadline.
func driveRequests(c *conn, g *generator, connIdx int, seconds float64, ts *traceSwitch) *connStats {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	st := &connStats{latMs: make([]float64, 0, int(seconds*maxRate))}
	var n uint64
	for time.Now().Before(deadline) {
		rq := g.next()
		n++
		id := reqID(kindLetter[rq.Kind], connIdx, n)
		start := time.Now()
		code, _, body, err := c.do(http.MethodPost, rq.Path, rq.Body, id)
		end := time.Now()
		if t := ts.Load(); t != nil {
			t.record("client", id, start, end)
		}
		st.attempted++
		switch {
		case err != nil:
			st.fail("%s: %v", rq.Path, err)
			continue
		case code != http.StatusOK:
			st.fail("%s: status %d: %.200s", rq.Path, code, body)
			continue
		}
		st.latMs = append(st.latMs, float64(end.Sub(start).Nanoseconds())/1e6)
		st.rows += rq.Rows
		if rq.Sample && len(st.samples) < maxSamples {
			st.samples = append(st.samples, sampled{req: rq, body: append([]byte(nil), body...)})
		}
	}
	return st
}

// resolve maps a request's scheme name and shd to the model inputs the
// server derives from the same JSON.
func resolve(p point) (core.Scheme, core.Params, error) {
	info, ok := core.SchemeInfoByName(p.Scheme)
	if !ok {
		return nil, core.Params{}, fmt.Errorf("unknown scheme %q", p.Scheme)
	}
	sch := info.Scheme
	if info.Configure != nil {
		var err error
		if sch, err = info.Configure(info.KnobDefault); err != nil {
			return nil, core.Params{}, err
		}
	}
	raw := strconv.AppendFloat([]byte(`{"shd":`), p.Shd, 'g', -1, 64)
	params, err := core.ReadParams(bytes.NewReader(append(raw, '}')))
	return sch, params, err
}

// directPoints answers p on a direct evaluator, as the server should.
func directPoints(ev *sweep.Evaluator, costs *core.CostTable, p point) ([]core.BusPoint, error) {
	sch, params, err := resolve(p)
	if err != nil {
		return nil, err
	}
	if p.Point {
		pt, err := ev.BusPoint(sch, params, costs, p.Procs)
		return []core.BusPoint{pt}, err
	}
	return ev.EvaluateBus(sch, params, costs, p.Procs)
}

// checkSample compares one sampled response with a direct evaluator's
// answer to the same questions, bit for bit.
func checkSample(ev *sweep.Evaluator, costs *core.CostTable, s sampled) error {
	var got [][]core.BusPoint
	switch s.req.Kind {
	case "sweep":
		var resp struct {
			Results []struct {
				Points []core.BusPoint `json:"points"`
			} `json:"results"`
		}
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return fmt.Errorf("decoding sweep answer: %w", err)
		}
		for _, r := range resp.Results {
			got = append(got, r.Points)
		}
	default:
		var resp struct {
			Points []core.BusPoint `json:"points"`
		}
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return fmt.Errorf("decoding bus answer: %w", err)
		}
		got = append(got, resp.Points)
	}
	if len(got) != len(s.req.Points) {
		return fmt.Errorf("%s answer has %d results, want %d", s.req.Kind, len(got), len(s.req.Points))
	}
	for i, p := range s.req.Points {
		want, err := directPoints(ev, costs, p)
		if err != nil {
			return err
		}
		if len(got[i]) != len(want) {
			return fmt.Errorf("%+v: %d points, want %d", p, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				return fmt.Errorf("%+v point %d: served %+v, direct evaluator %+v", p, j, got[i][j], want[j])
			}
		}
	}
	return nil
}

// checkSamples runs checkSample over every connection's samples,
// counting each mismatch as a failed operation.
func checkSamples(stats []*connStats) {
	ev := sweep.NewEvaluator()
	costs := core.BusCosts()
	for _, st := range stats {
		for _, s := range st.samples {
			if err := checkSample(ev, costs, s); err != nil {
				st.rows -= s.req.Rows
				st.fail("wrong answer: %v", err)
			}
		}
	}
}

// prime sends every key once as a point query, so in-window requests
// for them are memo hits. It calls the front handler in-process: a
// loopback round trip per key would make set-up time follow the host's
// scheduling delays rather than the work set-up does. It returns, per
// key, the backend that answered (the X-Coheregw-Backend header; empty
// without a gateway).
func prime(front http.Handler, keys []point) ([]string, error) {
	owners := make([]string, len(keys))
	for i, k := range keys {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bus", bytes.NewReader(appendPoint(nil, k))))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("priming: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		owners[i] = rec.Header().Get("X-Coheregw-Backend")
	}
	return owners, nil
}

// scrape reads a Prometheus text page into series -> value.
func scrape(url string) (map[string]float64, error) {
	c := newConn(url)
	defer c.close()
	code, _, body, err := c.do(http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// scrapeBackends scrapes every backend and sums the series across them.
func (f *fleet) scrapeBackends() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, b := range f.backends {
		m, err := scrape(b.http.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// stats sums the backends' evaluator counters.
func (f *fleet) stats() sweep.Stats {
	var s sweep.Stats
	for _, b := range f.backends {
		x := b.srv.Evaluator().Stats()
		s.DemandSolves += x.DemandSolves
		s.DemandHits += x.DemandHits
		s.MVASolves += x.MVASolves
		s.MVAHits += x.MVAHits
		s.CurveExtends += x.CurveExtends
		s.CurveFullSolves += x.CurveFullSolves
		s.DemandDedups += x.DemandDedups
		s.MVADedups += x.MVADedups
		s.DemandEvictions += x.DemandEvictions
		s.CurveEvictions += x.CurveEvictions
	}
	return s
}
