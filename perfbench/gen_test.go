package main

import (
	"bytes"
	"testing"
)

func schedule(spec genSpec, seed int64, stream, n int) []request {
	g := newGenerator(spec, seed, stream)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestScheduleRepeatsForASeed(t *testing.T) {
	for name, spec := range map[string]genSpec{"hot": hotShape.spec, "cold": coldShape.spec, "gw": gwShape.spec} {
		a, b := schedule(spec, 42, 0, 500), schedule(spec, 42, 0, 500)
		for i := range a {
			if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Sample != b[i].Sample {
				t.Fatalf("%s: request %d differs between two runs of seed 42:\n%s\n%s", name, i, a[i].Body, b[i].Body)
			}
		}
	}
}

func TestScheduleDiffersAcrossSeeds(t *testing.T) {
	for name, spec := range map[string]genSpec{"hot": hotShape.spec, "cold": coldShape.spec, "gw": gwShape.spec} {
		a, b := schedule(spec, 1, 0, 200), schedule(spec, 2, 0, 200)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].Body, b[i].Body) {
				same++
			}
		}
		if same > len(a)/10 {
			t.Errorf("%s: seeds 1 and 2 share %d of %d requests", name, same, len(a))
		}
	}
}

func TestPoolSharedAcrossStreams(t *testing.T) {
	pool := map[float64]bool{}
	for _, k := range poolKeys(gwShape.spec, 9) {
		pool[k.Shd] = true
	}
	for stream := 0; stream < streams; stream++ {
		for _, r := range schedule(gwShape.spec, 9, stream, 200) {
			if !pool[r.Points[0].Shd] {
				t.Fatalf("stream %d asks for shd %v, outside the primed pool", stream, r.Points[0].Shd)
			}
		}
	}
}

func TestMissKeysNeverRepeat(t *testing.T) {
	seen := map[point]int{}
	for stream := 0; stream < streams; stream++ {
		for _, r := range schedule(coldShape.spec, 5, stream, 2000) {
			p := r.Points[0]
			p.Procs = 0 // the workload, not the machine size, keys the demand cache
			if prev, ok := seen[p]; ok {
				t.Fatalf("stream %d repeats stream %d's key %+v", stream, prev, p)
			}
			seen[p] = stream
		}
	}
}

func TestJobStreamRepeatsForASeed(t *testing.T) {
	a, b, c := newJobGen(3, coldShape.spec.Schemes, 64), newJobGen(3, coldShape.spec.Schemes, 64), newJobGen(4, coldShape.spec.Schemes, 64)
	differs := false
	for i := 0; i < 50; i++ {
		ja, jb, jc := a.next(), b.next(), c.next()
		if !bytes.Equal(ja.Body(), jb.Body()) {
			t.Fatalf("job %d differs for one seed:\n%s\n%s", i, ja.Body(), jb.Body())
		}
		if ja.Schemes[0] == ja.Schemes[1] {
			t.Fatalf("job %d pits %s against itself", i, ja.Schemes[0])
		}
		differs = differs || !bytes.Equal(ja.Body(), jc.Body())
	}
	if !differs {
		t.Error("seeds 3 and 4 give the same job stream")
	}
}
