package gw

import "testing"

// TestRequestKeyMatchesBackendIdentity pins the routing key to the
// backend's cache identity at function level: bodies the backend
// answers from one memo entry get one key, a workload change gets
// another, and a fixed body keeps the key every earlier gateway gave
// it, so a fleet upgrade moves no valid request to another backend.
func TestRequestKeyMatchesBackendIdentity(t *testing.T) {
	g := &Gateway{}
	key := func(body string) uint64 {
		t.Helper()
		if _, ok := pointKey([]byte(body)); !ok {
			t.Fatalf("body fell back to the raw key: %s", body)
		}
		return g.requestKey("/v1/bus", []byte(body))
	}
	for _, eq := range [][]string{
		{
			`{"scheme": "swflush", "level": "mid", "procs": 16}`,
			`{"scheme": "swflush", "level": "middle", "procs": 16}`,
			`{"scheme": "swflush", "procs": 16}`,
			`{"scheme": "swflush", "params": {"ls": 0.3, "msdat": 0.014, "mains": 0.0022, "md": 0.2,
				"shd": 0.25, "wr": 0.25, "mdshd": 0.25, "apl": 7.6923076923076925,
				"oclean": 0.84, "opres": 0.79, "nshd": 1}, "procs": 16}`,
		},
		{`{"scheme": "hybrid", "procs": 8}`, `{"scheme": "hybrid", "lockfrac": 0.3, "procs": 8}`},
		{
			`{"scheme": "swflush", "params": {"shd": 0.3, "wr": 0.2}, "procs": 8}`,
			`{"scheme": "swflush", "params": {"shd": 0.3, "wr": 0.9}, "procs": 8}`,
		},
		{
			`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 4}`,
			`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 32}`,
		},
	} {
		want := key(eq[0])
		for _, body := range eq[1:] {
			if got := key(body); got != want {
				t.Errorf("keys differ: %#x for %s\nvs %#x for %s", got, body, want, eq[0])
			}
		}
	}

	if key(`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`) ==
		key(`{"scheme": "dragon", "params": {"shd": 0.5}, "procs": 8}`) {
		t.Error("a shd change did not change the key")
	}

	// The key of one fixed body, as the gateway has always computed it:
	// FNV-1a over SchemeLabel and the 11 canonical floats.
	const pinned = 0x8dcea51d149b13dc
	if got := key(`{"scheme": "dragon", "params": {"shd": 0.4}, "procs": 8}`); got != pinned {
		t.Errorf("fixed body keys to %#x, want %#x", got, uint64(pinned))
	}
}

// TestRequestKeyFallsBackToRawBody: a body the resolver rejects keys on
// its raw bytes, so identical bad bodies still co-locate.
func TestRequestKeyFallsBackToRawBody(t *testing.T) {
	g := &Gateway{}
	for _, body := range []string{
		`{"scheme": "firefly"}`,
		`{"scheme": "dragon", "lockfrac": 0.5}`,
		`{"scheme": "dragon", "level": "extreme"}`,
		`{"scheme": "dragon", "params": {"shd": 1.5}}`,
		`not json`,
	} {
		if got, want := g.requestKey("/v1/bus", []byte(body)), rawKey([]byte(body)); got != want {
			t.Errorf("%s: key %#x, want the raw-body key %#x", body, got, want)
		}
	}
	if got := g.keyFallbacks.Load(); got != 5 {
		t.Errorf("keyFallbacks = %d, want 5", got)
	}
}
