package gw

import (
	"encoding/json"
	"math"

	"swcc/internal/core"
)

// Routing keys are the gateway's half of the cache-affinity contract:
// two requests the backend answers from the same memo entries must hash
// to the same key, so they land on the same backend and the second one
// is a hit. The gateway reuses the model's own canonicalization —
// core.CanonicalParams collapses every parameter the scheme ignores —
// and deliberately leaves procs out of bus keys: the evaluator's curves
// are prefix-shared, so all populations of one (scheme, workload) curve
// belong on one backend.

// FNV-1a constants, matching the evaluator's shard hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// jobsKey pins the whole /v1/jobs subtree to one rendezvous owner: job
// IDs exist in a single backend's registry, so splitting the subtree
// would make a submitted job unfindable.
const jobsKey uint64 = fnvOffset ^ 0x6a6f6273 // "jobs"

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashFloat(h uint64, f float64) uint64 {
	b := math.Float64bits(f)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (b >> i & 0xff)) * fnvPrime
	}
	return h
}

// splitmix64 is the rendezvous score mixer: cheap, stateless, and
// avalanching, so one flipped key bit reshuffles the backend ranking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// requestKey derives the routing key for one request body. Bus and
// network requests key on (scheme identity, canonical params); bodies
// that do not resolve — and endpoints with no single scheme (advisor,
// sensitivity, sweep batches) — fall back to hashing the raw bytes,
// which affects only affinity quality (identical bodies still
// co-locate), never correctness.
func (g *Gateway) requestKey(path string, body []byte) uint64 {
	switch path {
	case "/v1/bus", "/v1/network":
		if key, ok := pointKey(body); ok {
			return key
		}
		g.keyFallbacks.Add(1)
	}
	return rawKey(body)
}

// pointKey keys one bus-shaped body on its canonical cache identity. It
// decodes tolerantly — unknown fields are ignored, strict validation is
// the backend's job — into core's request types and resolves them with
// core's resolver, so a body keys exactly as the backend will solve it.
func pointKey(body []byte) (uint64, bool) {
	var req struct {
		core.SchemeSpec
		core.Workload
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, false
	}
	scheme, err := req.SchemeSpec.Resolve()
	if err != nil {
		return 0, false
	}
	p, err := req.Workload.Resolve()
	if err != nil {
		return 0, false
	}
	cp := core.CanonicalParams(scheme, p)
	h := hashString(fnvOffset, core.SchemeLabel(scheme))
	for _, f := range [...]float64{
		cp.LS, cp.MsDat, cp.MsIns, cp.MD, cp.Shd, cp.WR,
		cp.APL, cp.MdShd, cp.OClean, cp.OPres, cp.NShd,
	} {
		h = hashFloat(h, f)
	}
	return h, true
}

// rawKey is the fallback routing key: FNV-1a over the body bytes.
func rawKey(body []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range body {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}
