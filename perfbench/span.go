package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans. The benchmark records spans only in its own code, around the
// calls it makes into each layer's public entry points; spans of one
// request share its X-Request-ID. They are kept in memory and written
// out when the run ends.

// span is one timed interval of one layer.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at a root
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from every goroutine of a run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record appends one span; a nil tracer records nothing.
func (t *tracer) record(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerRank orders the layers a request passes through, outermost
// first. A span's parent is the innermost enclosing span of a lower
// rank with the same request ID.
var layerRank = map[string]int{
	"client":     0,
	"gw":         1,
	"gw.backend": 2,
	"serve":      3,
}

// link sets every span's Parent: among the spans sharing its request ID
// and of lower rank, the one of highest rank whose interval contains
// it (the shortest such span on a tie). It returns the spans grouped by
// request ID, as indices into spans.
func link(spans []span) map[string][]int {
	byReq := map[string][]int{}
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		for _, i := range idx {
			c := &spans[i]
			best := -1
			for _, j := range idx {
				p := spans[j]
				if j == i || layerRank[p.Name] >= layerRank[c.Name] || p.Start > c.Start || p.End < c.End {
					continue
				}
				if best < 0 || layerRank[p.Name] > layerRank[spans[best].Name] ||
					(layerRank[p.Name] == layerRank[spans[best].Name] && p.dur() < spans[best].dur()) {
					best = j
				}
			}
			c.Parent = best
		}
	}
	return byReq
}

// covered returns how much of [lo, hi) the union of the intervals
// covers: time that two overlapping children share counts once.
func covered(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
