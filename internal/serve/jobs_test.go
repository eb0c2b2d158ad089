package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swcc/internal/core"
	"swcc/internal/fault"
	"swcc/internal/sweep"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submitJob posts a job spec and returns the submit response.
func submitJob(t *testing.T, ts *httptest.Server, body string) jobSubmitResponse {
	t.Helper()
	code, data := post(t, ts, "/v1/jobs/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var sub jobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if sub.ID == "" {
		t.Fatalf("submit response has no id: %s", data)
	}
	return sub
}

// jobStatus fetches one job's status.
func jobStatus(t *testing.T, ts *httptest.Server, id string) jobStatusJSON {
	t.Helper()
	code, data := get(t, ts, "/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %s: %d: %s", id, code, data)
	}
	var st jobStatusJSON
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a state or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id, want string) jobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (want %q); error: %s", id, st.State, want, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobStream is one parsed results stream.
type jobStream struct {
	rows     []json.RawMessage // data lines, in order
	markers  []uint64          // {"seq":N} cursor lines, in order
	trailer  *jobTrailerJSON   // final line, nil if the stream ended early
	rawLines int
}

// streamResults reads one GET /v1/jobs/{id}/results?after=N to the end.
func streamResults(t *testing.T, ts *httptest.Server, id string, after uint64) jobStream {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?after=%d", ts.URL, id, after))
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d: %s", id, resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q, want application/x-ndjson", ct)
	}
	return parseStream(t, resp.Body)
}

func parseStream(t *testing.T, r io.Reader) jobStream {
	t.Helper()
	var out jobStream
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		out.rawLines++
		var probe struct {
			Seq  *uint64 `json:"seq"`
			Done *bool   `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		switch {
		case probe.Done != nil:
			var tr jobTrailerJSON
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			out.trailer = &tr
		case probe.Seq != nil:
			out.markers = append(out.markers, *probe.Seq)
		default:
			out.rows = append(out.rows, json.RawMessage(append([]byte(nil), line...)))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return out
}

// TestJobGridLifecycle is the happy path: submit a grid, watch it finish,
// stream every row in order, and confirm the drained spool holds nothing.
func TestJobGridLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts, `{"label":"grid-test","schemes":["swflush","dragon"],
		"axis":"apl","from":10,"to":30,"steps":3,"procs_from":1,"procs_to":8}`)
	if sub.Points != 2*3*8 {
		t.Fatalf("submit points = %d, want 48", sub.Points)
	}
	if sub.ResultsURL != "/v1/jobs/"+sub.ID+"/results" {
		t.Errorf("results_url = %q", sub.ResultsURL)
	}

	st := waitState(t, ts, sub.ID, "done")
	if st.PointsOK != 48 || st.PointsErr != 0 {
		t.Fatalf("points ok/err = %d/%d, want 48/0", st.PointsOK, st.PointsErr)
	}

	stream := streamResults(t, ts, sub.ID, 0)
	if stream.trailer == nil || !stream.trailer.Done {
		t.Fatal("stream ended without a done trailer")
	}
	if stream.trailer.State != "done" || stream.trailer.PointsOK != 48 {
		t.Fatalf("trailer = %+v", stream.trailer)
	}
	if len(stream.rows) != 48 {
		t.Fatalf("streamed %d rows, want 48", len(stream.rows))
	}
	if len(stream.markers) == 0 {
		t.Fatal("stream had no {\"seq\":N} markers")
	}
	// Rows arrive in submission order: per (scheme, x), procs ascend 1..8.
	perScheme := map[string]int{}
	for i, raw := range stream.rows {
		var row jobRowJSON
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatal(err)
		}
		if row.Error != "" || row.Point == nil {
			t.Fatalf("row %d unexpectedly failed: %s", i, raw)
		}
		if want := i%8 + 1; row.Procs != want {
			t.Fatalf("row %d procs = %d, want %d", i, row.Procs, want)
		}
		if row.X == nil {
			t.Fatalf("row %d missing axis value: %s", i, raw)
		}
		perScheme[row.Scheme]++
	}
	if perScheme["Software-Flush"] != 24 || perScheme["Dragon"] != 24 {
		t.Fatalf("rows per scheme = %v", perScheme)
	}

	// Each streamed row is bit-identical to the direct evaluator answer.
	var first jobRowJSON
	if err := json.Unmarshal(stream.rows[0], &first); err != nil {
		t.Fatal(err)
	}
	p, err := core.MiddleParams().With("apl", *first.X)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EvaluateBus(core.SoftwareFlush{}, p, core.BusCosts(), first.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if *first.Point != want[first.Procs-1] {
		t.Fatalf("streamed point %+v != direct %+v", *first.Point, want[first.Procs-1])
	}

	// Everything acked: the spool is empty, and a resume from the final
	// cursor replays nothing but the trailer.
	st = jobStatus(t, ts, sub.ID)
	if st.SpooledRows != 0 {
		t.Fatalf("spooled_rows = %d after full drain, want 0", st.SpooledRows)
	}
	last := stream.markers[len(stream.markers)-1]
	resumed := streamResults(t, ts, sub.ID, last)
	if len(resumed.rows) != 0 || resumed.trailer == nil {
		t.Fatalf("resume at final cursor: %d rows, trailer %v", len(resumed.rows), resumed.trailer)
	}

	// The daemon's metrics carry the job families.
	_, metricsBody := get(t, ts, "/metrics")
	for _, want := range []string{
		"swcc_jobs_active 0",
		`swcc_job_points_total{state="ok"} 48`,
		`swcc_job_points_total{state="error"} 0`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Delete releases the slot; the job is gone afterwards.
	if code, _ := del(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusNotFound {
		t.Fatalf("status after delete = %d, want 404", code)
	}
	// The monotonic point counters survive the deletion.
	_, metricsBody = get(t, ts, "/metrics")
	if !strings.Contains(string(metricsBody), `swcc_job_points_total{state="ok"} 48`) {
		t.Error("job point counter dropped after delete")
	}
}

// TestJobRefineMatchesDirect runs a refine job and checks its streamed
// crossover against the library's Refine on a fresh engine.
func TestJobRefineMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base, err := core.MiddleParams().With("apl", 20)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.New(0).Refine(context.Background(), sweep.RefineSpec{
		Schemes: []core.Scheme{core.SoftwareFlush{}, core.Dragon{}},
		Base:    base, Axis: sweep.AxisProcs, From: 1, To: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Boundaries) != 1 {
		t.Fatalf("direct refine found %d boundaries, want 1", len(direct.Boundaries))
	}

	sub := submitJob(t, ts, `{"mode":"refine","schemes":["swflush","dragon"],
		"axis":"procs","from":1,"to":64,"params":{"apl":20}}`)
	waitState(t, ts, sub.ID, "done")
	stream := streamResults(t, ts, sub.ID, 0)
	if stream.trailer == nil || stream.trailer.State != "done" {
		t.Fatalf("trailer = %+v", stream.trailer)
	}

	var boundaries []refineBoundaryJSON
	rowByX := map[float64]refineRowJSON{}
	for _, raw := range stream.rows {
		if strings.Contains(string(raw), `"boundary"`) {
			var b refineBoundaryJSON
			if err := json.Unmarshal(raw, &b); err != nil {
				t.Fatal(err)
			}
			boundaries = append(boundaries, b)
			continue
		}
		var row refineRowJSON
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatal(err)
		}
		rowByX[row.X] = row
	}
	if len(boundaries) != 1 {
		t.Fatalf("streamed %d boundary rows, want 1", len(boundaries))
	}
	b := boundaries[0]
	want := direct.Boundaries[0]
	if b.Boundary.Lo != want.Lo || b.Boundary.Hi != want.Hi ||
		b.Boundary.LoBest != "Software-Flush" || b.Boundary.HiBest != "Dragon" {
		t.Fatalf("streamed boundary %+v, direct %+v", b.Boundary, want)
	}
	if len(rowByX) != len(direct.Points) {
		t.Fatalf("streamed %d refine points, direct evaluated %d", len(rowByX), len(direct.Points))
	}
	for _, dp := range direct.Points {
		row, ok := rowByX[dp.X]
		if !ok {
			t.Fatalf("direct point x=%g missing from stream", dp.X)
		}
		for i, pw := range dp.Power {
			if row.Power[i] != pw {
				t.Fatalf("x=%g scheme %d power %v != direct %v", dp.X, i, row.Power[i], pw)
			}
		}
	}
}

// TestJobValidationAndErrorMapping drives every 4xx path of the job API.
func TestJobValidationAndErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobPoints: 100})
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"no schemes":         {`{"schemes":[]}`, 400},
		"bad scheme":         {`{"schemes":["bogus"]}`, 400},
		"bad mode":           {`{"mode":"stream","schemes":["dragon"]}`, 400},
		"steps without axis": {`{"schemes":["dragon"],"steps":5}`, 400},
		"axis needs steps":   {`{"schemes":["dragon"],"axis":"apl","from":1,"to":9}`, 400},
		"grid procs axis":    {`{"schemes":["dragon"],"axis":"procs","from":1,"to":9,"steps":3}`, 400},
		"procs conflict":     {`{"schemes":["dragon"],"procs":4,"procs_from":1,"procs_to":8}`, 400},
		"unknown axis":       {`{"schemes":["dragon"],"axis":"bogus","from":1,"to":9,"steps":3}`, 400},
		"over point cap":     {`{"schemes":["dragon"],"procs_from":1,"procs_to":101}`, 400},
		"refine one scheme":  {`{"mode":"refine","schemes":["dragon"],"axis":"procs","from":1,"to":8}`, 400},
		"refine bad range":   {`{"mode":"refine","schemes":["dragon","swflush"],"axis":"procs","from":8,"to":1}`, 400},
		"unknown field":      {`{"schemes":["dragon"],"prox":8}`, 400},
	} {
		if code, data := post(t, ts, "/v1/jobs/sweep", tc.body); code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", name, code, tc.want, data)
		}
	}

	// Unknown job IDs are 404 across all three per-job endpoints.
	if code, _ := get(t, ts, "/v1/jobs/j999999"); code != 404 {
		t.Errorf("status of unknown job: %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/j999999/results"); code != 404 {
		t.Errorf("results of unknown job: %d", code)
	}
	if code, _ := del(t, ts, "/v1/jobs/j999999"); code != 404 {
		t.Errorf("delete of unknown job: %d", code)
	}

	// Cursor errors: beyond the stream is 400, behind the freed prefix 410.
	sub := submitJob(t, ts, `{"schemes":["dragon"],"procs_from":1,"procs_to":8}`)
	waitState(t, ts, sub.ID, "done")
	if code, data := get(t, ts, "/v1/jobs/"+sub.ID+"/results?after=999999"); code != 400 {
		t.Errorf("future cursor: status %d: %s", code, data)
	}
	if code, _ := get(t, ts, "/v1/jobs/"+sub.ID+"/results?after=nope"); code != 400 {
		t.Errorf("malformed cursor: status %d", code)
	}
	streamResults(t, ts, sub.ID, 0) // acks everything
	if code, data := get(t, ts, "/v1/jobs/"+sub.ID+"/results?after=0"); code != http.StatusGone {
		t.Errorf("rewound cursor: status %d (want 410): %s", code, data)
	}
}

// TestJobRegistryFullAndCancel exercises the 503-when-full path and
// mid-flight cancellation through DELETE. Injected latency keeps the job
// alive long enough to observe it running.
func TestJobRegistryFullAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxJobs: 1,
		Fault:   fault.New(fault.Config{Seed: 1, Latency: 2 * time.Millisecond, LatencyP: 1}),
	})
	slow := `{"schemes":["swflush","dragon"],"axis":"apl","from":4,"to":40,"steps":10,"procs_from":1,"procs_to":64}`
	sub := submitJob(t, ts, slow)
	waitState(t, ts, sub.ID, "running")

	code, data := post(t, ts, "/v1/jobs/sweep", slow)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit over MaxJobs: status %d: %s", code, data)
	}

	if code, _ := del(t, ts, "/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("delete running job: status %d", code)
	}
	// The slot frees immediately; the next submission is admitted.
	sub2 := submitJob(t, ts, slow)
	if code, _ := del(t, ts, "/v1/jobs/"+sub2.ID); code != http.StatusOK {
		t.Fatal("second delete failed")
	}
}

// TestJobList lists resident jobs with their states.
func TestJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := submitJob(t, ts, `{"label":"a","schemes":["dragon"],"procs":8}`)
	b := submitJob(t, ts, `{"label":"b","schemes":["swflush"],"procs":8}`)
	waitState(t, ts, a.ID, "done")
	waitState(t, ts, b.ID, "done")
	code, data := get(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []jobStatusJSON `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID > list.Jobs[1].ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
	if list.Jobs[0].Label != "a" || list.Jobs[1].Label != "b" {
		t.Fatalf("labels = %q, %q", list.Jobs[0].Label, list.Jobs[1].Label)
	}
}

// TestSweepPoolAccountingUnderFaults hammers /v1/sweep with error and
// panic injection on every point and then proves the solver slots all
// came back: no solve holds a limiter slot, whatever mix of 200, 500,
// and 503 responses the injector produced. Solves run in the handler
// goroutine and release their slot before the response is written, so
// the balance must hold as soon as the last response has arrived — no
// retry.
func TestSweepPoolAccountingUnderFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Fault: fault.New(fault.Config{Seed: 42, ErrorP: 0.05, PanicP: 0.05}),
	})
	var pts []string
	for i := 0; i < 12; i++ {
		pts = append(pts, fmt.Sprintf(`{"scheme":"dragon","procs":%d}`, 4+i))
	}
	body := `{"points":[` + strings.Join(pts, ",") + `]}`
	codes := map[int]int{}
	for i := 0; i < 50; i++ {
		code, _ := post(t, ts, "/v1/sweep", body)
		codes[code]++
	}
	if codes[200] == 0 {
		t.Errorf("no sweep succeeded under injection: %v", codes)
	}
	if codes[500]+codes[503] == 0 {
		t.Errorf("no sweep failed under 25%%+25%% injection: %v", codes)
	}
	if n := s.met.solveInFlight.Load(); n != 0 {
		t.Fatalf("solveInFlight = %d after the last response, want 0", n)
	}
}

// TestLargeJobBoundedMemoryAndAccounting is the scale acceptance test: a
// 100k-point grid job under error and panic injection streams to
// completion with every point accounted for (ok + error == grid size)
// and the spool's high-water mark bounded by its configured cap.
func TestLargeJobBoundedMemoryAndAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point job in -short mode")
	}
	spoolRows := 2048
	_, ts := newTestServer(t, Config{
		JobSpoolRows: spoolRows,
		Fault:        fault.New(fault.Config{Seed: 7, ErrorP: 0.02, PanicP: 0.005}),
	})
	// 2 schemes x 50 axis values x 1000 machine sizes = 100000 points.
	sub := submitJob(t, ts, `{"label":"big","schemes":["swflush","dragon"],
		"axis":"apl","from":1,"to":50,"steps":50,"procs_from":1,"procs_to":1000}`)
	if sub.Points != 100000 {
		t.Fatalf("submit points = %d, want 100000", sub.Points)
	}

	stream := streamResults(t, ts, sub.ID, 0)
	if stream.trailer == nil || !stream.trailer.Done || stream.trailer.State != "done" {
		t.Fatalf("trailer = %+v", stream.trailer)
	}
	if len(stream.rows) != 100000 {
		t.Fatalf("streamed %d rows, want 100000", len(stream.rows))
	}
	if got := stream.trailer.PointsOK + stream.trailer.PointsErr; got != 100000 {
		t.Fatalf("ok+err = %d, want 100000 (%+v)", got, stream.trailer)
	}
	if stream.trailer.PointsErr == 0 {
		t.Error("no injected point failures in 100k points at 2.5% injection")
	}

	st := jobStatus(t, ts, sub.ID)
	if st.HighWater > spoolRows {
		t.Errorf("spool high water %d exceeded cap %d", st.HighWater, spoolRows)
	}
	if st.SpooledRows != 0 {
		t.Errorf("spooled_rows = %d after full drain", st.SpooledRows)
	}
}

// TestJobCurveSolvesPerChunk pins a grid job's cost as counts: a
// 1..1000 machine-size curve streams in two 512-row chunks, each one
// solve at its largest size — a full solve to 512, then one extension
// of that cached curve to 1000.
func TestJobCurveSolvesPerChunk(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts, `{"schemes":["dragon"],"procs_from":1,"procs_to":1000}`)
	stream := streamResults(t, ts, sub.ID, 0)
	if len(stream.rows) != 1000 || stream.trailer == nil || stream.trailer.PointsOK != 1000 {
		t.Fatalf("streamed %d rows, trailer %+v; want 1000 ok rows", len(stream.rows), stream.trailer)
	}
	st := s.Evaluator().Stats()
	if st.CurveFullSolves != 1 || st.CurveExtends != 1 || st.MVASolves != 2 {
		t.Errorf("full solves %d, extends %d, MVA solves %d; want 1, 1, 2",
			st.CurveFullSolves, st.CurveExtends, st.MVASolves)
	}
}
