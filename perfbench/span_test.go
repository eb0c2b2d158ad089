package main

import "testing"

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60},  // overlaps the first: 10..60 is covered once
		{Start: 50, End: 55},  // inside both
		{Start: 80, End: 120}, // runs past the parent: only 80..100 counts
	}
	if got := selfTime(parent, children); got != 30 {
		t.Errorf("self time = %d, want 30 (100 - 50 - 20)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLinkMatchesBackendTripsByRequestID(t *testing.T) {
	// Two requests in flight at once through the gateway; request a's
	// first backend trip fails and is retried. Their intervals overlap,
	// so only the request ID can tell whose trip is whose.
	spans := []span{
		{Name: "client", Req: "a", Start: 0, End: 100},
		{Name: "client", Req: "b", Start: 5, End: 90},
		{Name: "gw", Req: "a", Start: 10, End: 95},
		{Name: "gw", Req: "b", Start: 8, End: 85},
		{Name: "gw.backend", Req: "a", Start: 12, End: 30},
		{Name: "gw.backend", Req: "a", Start: 31, End: 90},
		{Name: "gw.backend", Req: "b", Start: 11, End: 80},
		{Name: "serve", Req: "b", Start: 20, End: 70},
		{Name: "serve", Req: "a", Start: 40, End: 85},
	}
	byReq := link(spans)
	if len(byReq["a"]) != 5 || len(byReq["b"]) != 4 {
		t.Fatalf("grouped %d and %d spans, want 5 and 4", len(byReq["a"]), len(byReq["b"]))
	}
	want := map[int]int{0: -1, 1: -1, 2: 0, 3: 1, 4: 2, 5: 2, 6: 3, 7: 6, 8: 5}
	for i, p := range want {
		if spans[i].Parent != p {
			t.Errorf("span %d (%s %s): parent %d, want %d", i, spans[i].Req, spans[i].Name, spans[i].Parent, p)
		}
	}
}
