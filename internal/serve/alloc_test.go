//go:build !race

package serve

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerWarmPathAllocs pins the hit path's allocation budget where
// it is spent: a warm /v1/bus request through the full handler tree
// (instrument middleware, access log, decode, validate, admission, memo
// hit, encode) into an httptest recorder. The request and recorder are
// built inside the measured function, as a client's would be, so the
// counts include them. Budgets sit at the counts measured with solves
// inline and one bus cost table per server.
//
// Runs without the race detector: its instrumentation perturbs
// testing.AllocsPerRun.
func TestHandlerWarmPathAllocs(t *testing.T) {
	h := NewServer(Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))}).Handler()
	for _, tc := range []struct {
		name   string
		body   string
		budget float64
	}{
		{"point", `{"scheme": "swflush", "params": {"shd": 0.3}, "procs": 16, "point": true}`, 73},
		{"curve", `{"scheme": "swflush", "params": {"shd": 0.3}, "procs": 16}`, 74},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bus", strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
		}
		serve() // warm the memo
		if got := testing.AllocsPerRun(200, serve); got > tc.budget {
			t.Errorf("warm %s: %.0f allocs/request, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("warm %s: %.0f allocs/request (budget %.0f)", tc.name, got, tc.budget)
		}
	}
}
