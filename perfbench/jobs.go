package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The cold_mixed job connection: /v1/jobs/sweep grids submitted back to
// back, each streamed to its done trailer.

// jobStats is the job connection's record of a window.
type jobStats struct {
	connStats            // attempted/failed count jobs; rows count result rows
	firstRowMs []float64 // submit to first row, per job
	gapMs      []float64 // between batch markers, all jobs
}

// driveJobs runs jobs until the deadline. A job still streaming at the
// deadline is abandoned and deleted; it counts neither as attempted
// nor as failed, but the rows it delivered in the window count.
func driveJobs(c *conn, jg *jobGen, connIdx int, deadline time.Time, ts *traceSwitch) *jobStats {
	st := &jobStats{}
	var n uint64
	for time.Now().Before(deadline) {
		spec := jg.next()
		n++
		done, err := runJob(c, spec, connIdx, n, deadline, ts, st)
		if !done {
			continue
		}
		st.attempted++
		if err != nil {
			st.fail("job: %v", err)
		}
	}
	return st
}

// runJob submits one job and streams it. done is false when the
// deadline cut the job short.
func runJob(c *conn, spec jobSpec, connIdx int, n uint64, deadline time.Time, ts *traceSwitch, st *jobStats) (done bool, err error) {
	sid := reqID(kindLetter["job_submit"], connIdx, n)
	start := time.Now()
	code, _, body, err := c.do(http.MethodPost, "/v1/jobs/sweep", spec.Body(), sid)
	if t := ts.Load(); t != nil {
		t.record("client", sid, start, time.Now())
	}
	if err != nil {
		return true, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusOK {
		return true, fmt.Errorf("submit: status %d: %.200s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return true, fmt.Errorf("submit: bad answer %.200s", body)
	}
	defer c.do(http.MethodDelete, "/v1/jobs/"+sub.ID, nil, "") //nolint:errcheck // cleanup; a failed delete leaves a job the server's TTL reaps

	rid := reqID(kindLetter["job_stream"], connIdx, n)
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+sub.ID+"/results", nil)
	if err != nil {
		return true, err
	}
	req.Header.Set("X-Request-ID", rid)
	sstart := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, fmt.Errorf("results: %w", err)
	}
	defer func() {
		resp.Body.Close()
		if t := ts.Load(); t != nil {
			t.record("client", rid, sstart, time.Now())
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return true, fmt.Errorf("results: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	rows, lastMark := 0, time.Time{}
	for sc.Scan() {
		line := sc.Bytes()
		now := time.Now()
		switch {
		case bytes.HasPrefix(line, []byte(`{"seq":`)):
			if !lastMark.IsZero() {
				st.gapMs = append(st.gapMs, float64(now.Sub(lastMark).Nanoseconds())/1e6)
			}
			lastMark = now
		case bytes.HasPrefix(line, []byte(`{"done":`)):
			var tr struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				return true, fmt.Errorf("bad trailer %.200s", line)
			}
			if tr.State != "done" {
				return true, fmt.Errorf("trailer state %q (%s), want done", tr.State, tr.Error)
			}
			if rows != spec.Rows() {
				return true, fmt.Errorf("streamed %d rows, want %d", rows, spec.Rows())
			}
			return true, nil
		default:
			if bytes.Contains(line, []byte(`"error":`)) {
				return true, fmt.Errorf("error row %.200s", line)
			}
			if rows == 0 {
				st.firstRowMs = append(st.firstRowMs, float64(now.Sub(start).Nanoseconds())/1e6)
			}
			rows++
			st.rows++
		}
		if now.After(deadline) {
			return false, nil
		}
	}
	if err := sc.Err(); err != nil {
		return true, fmt.Errorf("reading stream: %w", err)
	}
	return true, fmt.Errorf("stream ended after %d rows without a trailer", rows)
}
