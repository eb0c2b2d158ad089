package main

import (
	"encoding/json"
	"math"
	"testing"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

func TestCheckSampleIsBitExact(t *testing.T) {
	ev, costs := sweep.NewEvaluator(), core.BusCosts()
	rq := newGenerator(hotShape.spec, 1, 0).next()
	var results []map[string]any
	for _, p := range rq.Points {
		pts, err := directPoints(ev, costs, p)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, map[string]any{"points": pts})
	}
	var body []byte
	if rq.Kind == "sweep" {
		body, _ = json.Marshal(map[string]any{"results": results})
	} else {
		body, _ = json.Marshal(results[0])
	}
	if err := checkSample(sweep.NewEvaluator(), costs, sampled{req: rq, body: body}); err != nil {
		t.Fatalf("a direct evaluator's own answer fails the check: %v", err)
	}

	// One ulp off in one field is a wrong answer.
	var resp struct {
		Points []core.BusPoint `json:"points"`
	}
	p := rq.Points[0]
	p.Point = true
	rq = request{Kind: "point", Points: []point{p}}
	pts, _ := directPoints(ev, costs, p)
	pts[0].Wait = nextUp(pts[0].Wait)
	resp.Points = pts
	body, _ = json.Marshal(resp)
	if err := checkSample(ev, costs, sampled{req: rq, body: body}); err == nil {
		t.Fatal("an answer one ulp off passed the check")
	}
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
