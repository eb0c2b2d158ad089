package main

import (
	"math"
	"math/rand"
	"strconv"
)

// The request generator. Every input the program under test receives
// is derived here from the benchmark seed: the same seed gives the same
// schedule, request by request, on every connection.

// splitmix64 is the SplitMix64 mixer; hashing (seed, stream) through it
// makes every stream an unrelated sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives the RNG seed of one named stream of a run.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(stream+1)))
}

// unit maps a seed to a fraction in [0, 1).
func unit(seed int64, stream uint64) float64 {
	return float64(uint64(streamSeed(seed, stream))>>11) / (1 << 53)
}

// point is one /v1/bus question: the model at one workload and machine
// size, either the single point (Point) or the whole 1..Procs curve.
type point struct {
	Scheme string
	Shd    float64
	Procs  int
	Point  bool
}

// request is one generated client operation.
type request struct {
	Kind string // "point", "curve" or "sweep"
	Path string
	Body []byte
	// Points are the questions the body asks, in response order.
	Points []point
	// Rows is the number of model points a correct answer carries.
	Rows int
	// Sample marks the request for the bit-identity check.
	Sample bool
}

// genSpec shapes one generator.
type genSpec struct {
	// Pool is the number of distinct warm keys; 0 draws never-repeating
	// keys instead.
	Pool int
	// Mix lists request kinds, each entry one unit of weight.
	Mix []string
	// Schemes are the registered scheme names keys rotate across.
	Schemes []string
	// ProcsLo..ProcsHi is the machine-size range (inclusive).
	ProcsLo, ProcsHi int
	// SweepPoints is the size of a "sweep" request.
	SweepPoints int
	// SampleEvery is the mean spacing of sampled requests.
	SampleEvery int
}

// generator yields one connection's request schedule.
type generator struct {
	spec   genSpec
	rng    *rand.Rand
	offset float64 // seed-derived shift of the key space
	miss   uint64  // never-repeating key counter
	stride uint64  // the stream index, so no two streams share a miss key
}

// streams bounds the schedule streams one run may draw: connections of
// two windows, the handler replay and the warm-up.
const streams = 8

// newGenerator returns stream conn's generator for one run. The
// key space (the pool's shd values, or the miss walk's start) depends
// on the seed alone, so all connections share one pool.
func newGenerator(spec genSpec, seed int64, conn int) *generator {
	return &generator{
		spec:   spec,
		rng:    rand.New(rand.NewSource(streamSeed(seed, uint64(conn)+100))),
		offset: unit(seed, 7),
		stride: uint64(conn),
	}
}

// poolKey returns the i-th warm-pool key for a run whose pool offset
// is off: shd values evenly spaced over (0.1, 0.9), shifted by the seed.
func poolShd(i, pool int, off float64) float64 {
	return 0.1 + 0.8*(float64(i)+off)/float64(pool)
}

// missShd walks (0.1, 0.9) by the golden ratio from a seeded start, so
// each n gives a distinct shd for practically every n.
func missShd(n uint64, off float64) float64 {
	const phi = 0.6180339887498949
	f := float64(n)*phi + off
	return 0.1 + 0.8*(f-math.Floor(f))
}

// poolKeys lists the warm pool's keys (one point per pool entry at the
// low end of the procs range), the set primed before timing starts.
func poolKeys(spec genSpec, seed int64) []point {
	off := unit(seed, 7)
	keys := make([]point, spec.Pool)
	for i := range keys {
		keys[i] = point{Scheme: spec.Schemes[i%len(spec.Schemes)], Shd: poolShd(i, spec.Pool, off), Procs: spec.ProcsLo, Point: true}
	}
	return keys
}

// key draws the next key of the schedule.
func (g *generator) key(single bool) point {
	s := g.spec
	procs := s.ProcsLo
	if s.ProcsHi > s.ProcsLo {
		procs += g.rng.Intn(s.ProcsHi - s.ProcsLo + 1)
	}
	if s.Pool > 0 {
		i := g.rng.Intn(s.Pool)
		return point{Scheme: s.Schemes[i%len(s.Schemes)], Shd: poolShd(i, s.Pool, g.offset), Procs: procs, Point: single}
	}
	n := g.miss*streams + g.stride // streams interleave the walk
	g.miss++
	return point{Scheme: s.Schemes[int(n%uint64(len(s.Schemes)))], Shd: missShd(n, g.offset), Procs: procs, Point: single}
}

// next returns the next request of the schedule.
func (g *generator) next() request {
	s := g.spec
	kind := s.Mix[g.rng.Intn(len(s.Mix))]
	sample := s.SampleEvery > 0 && g.rng.Intn(s.SampleEvery) == 0
	var r request
	switch kind {
	case "point", "curve":
		p := g.key(kind == "point")
		r = request{Kind: kind, Path: "/v1/bus", Points: []point{p}, Body: appendPoint(nil, p)}
		r.Rows = 1
		if kind == "curve" {
			r.Rows = p.Procs
		}
	case "sweep":
		r = request{Kind: kind, Path: "/v1/sweep", Rows: s.SweepPoints}
		b := []byte(`{"points":[`)
		for i := 0; i < s.SweepPoints; i++ {
			p := g.key(true)
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPoint(b, p)
			r.Points = append(r.Points, p)
		}
		r.Body = append(b, "]}"...)
	default:
		panic("perfbench: unknown request kind " + kind)
	}
	r.Sample = sample
	return r
}

// appendPoint appends p's /v1/bus request body to b.
func appendPoint(b []byte, p point) []byte {
	b = append(b, `{"scheme":`...)
	b = strconv.AppendQuote(b, p.Scheme)
	b = append(b, `,"params":{"shd":`...)
	b = strconv.AppendFloat(b, p.Shd, 'g', -1, 64)
	b = append(b, `},"procs":`...)
	b = strconv.AppendInt(b, int64(p.Procs), 10)
	if p.Point {
		b = append(b, `,"point":true`...)
	}
	return append(b, '}')
}

// jobSpec is one /v1/jobs/sweep grid of the cold_mixed job stream.
type jobSpec struct {
	Schemes  []string
	Shd      float64
	Axis     string
	From, To float64
	Steps    int
	ProcsTo  int
}

// Rows is the number of result rows the grid streams.
func (j jobSpec) Rows() int { return len(j.Schemes) * j.Steps * j.ProcsTo }

// Body is the job's submit body.
func (j jobSpec) Body() []byte {
	b := []byte(`{"label":"perfbench","schemes":[`)
	for i, s := range j.Schemes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, s)
	}
	b = append(b, `],"params":{"shd":`...)
	b = strconv.AppendFloat(b, j.Shd, 'g', -1, 64)
	b = append(b, `},"axis":`...)
	b = strconv.AppendQuote(b, j.Axis)
	b = append(b, `,"from":`...)
	b = strconv.AppendFloat(b, j.From, 'g', -1, 64)
	b = append(b, `,"to":`...)
	b = strconv.AppendFloat(b, j.To, 'g', -1, 64)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(j.Steps), 10)
	b = append(b, `,"procs_from":1,"procs_to":`...)
	b = strconv.AppendInt(b, int64(j.ProcsTo), 10)
	return append(b, '}')
}

// jobGen yields the cold_mixed job stream: every job a fresh workload,
// so its grid solves cold.
type jobGen struct {
	schemes []string
	procsTo int
	rng     *rand.Rand
	off     float64
	n       uint64
}

func newJobGen(seed int64, schemes []string, procsTo int) *jobGen {
	return &jobGen{schemes: schemes, procsTo: procsTo, rng: rand.New(rand.NewSource(streamSeed(seed, 50))), off: unit(seed, 51)}
}

func (j *jobGen) next() jobSpec {
	a := j.rng.Intn(len(j.schemes))
	b := (a + 1 + j.rng.Intn(len(j.schemes)-1)) % len(j.schemes)
	j.n++
	return jobSpec{
		Schemes: []string{j.schemes[a], j.schemes[b]},
		Shd:     missShd(j.n, j.off),
		Axis:    "apl", From: 4, To: 40, Steps: 4,
		ProcsTo: j.procsTo,
	}
}
