//go:build !race

package serve

import (
	"fmt"
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
// counts include them. Each budget sits at the count measured once
// request bodies decode in one pass straight into core's request types
// (params included) and resolve through core's resolver.
//
// Runs without the race detector: its instrumentation perturbs
// testing.AllocsPerRun.
func TestHandlerWarmPathAllocs(t *testing.T) {
	h := NewServer(Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))}).Handler()
	// The sweep case is perfbench hot_bus's batch shape: eight
	// single-point Software-Flush cells at 16 processors, each its own
	// (scheme, workload) group.
	var cells []string
	for i := 0; i < 8; i++ {
		cells = append(cells, fmt.Sprintf(`{"scheme": "swflush", "params": {"shd": %g}, "procs": 16, "point": true}`, 0.1+0.1*float64(i)))
	}
	for _, tc := range []struct {
		name   string
		path   string
		body   string
		budget float64
	}{
		{"point", "/v1/bus", `{"scheme": "swflush", "params": {"shd": 0.3}, "procs": 16, "point": true}`, 66},
		{"curve", "/v1/bus", `{"scheme": "swflush", "params": {"shd": 0.3}, "procs": 16}`, 67},
		{"sweep", "/v1/sweep", `{"points": [` + strings.Join(cells, ", ") + `]}`, 135},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
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
