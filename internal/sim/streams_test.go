package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"swcc/internal/trace"
)

// TestRunStreamsMatchesRestrict pins that replaying the first n streams
// of one split is the same simulation as running the restricted trace,
// for every protocol and medium, with and without warmup.
func TestRunStreamsMatchesRestrict(t *testing.T) {
	tr := genTrace(t, "pops", 4_000)
	streams := tr.PerCPU()
	cache := CacheConfig{Size: 4 * 1024, BlockSize: 16, Assoc: 2}
	for _, medium := range []Medium{MediumBus, MediumNetwork} {
		for _, proto := range []Protocol{ProtoBase, ProtoDragon, ProtoNoCache, ProtoSoftwareFlush, ProtoWriteInvalidate} {
			if medium == MediumNetwork && (proto == ProtoDragon || proto == ProtoWriteInvalidate) {
				continue
			}
			for n := 1; n <= tr.NCPU; n++ {
				for _, warm := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/%v/n=%d/warm=%v", medium, proto, n, warm), func(t *testing.T) {
						sub := tr.Restrict(n)
						cfg := Config{NCPU: n, Cache: cache, Protocol: proto, Medium: medium}
						if warm {
							cfg.WarmupRefs = len(sub.Refs) / 2
						}
						want, err := Run(cfg, sub)
						if err != nil {
							t.Fatal(err)
						}
						got, err := RunStreams(cfg, streams[:n])
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("RunStreams = %+v\nRun(Restrict) = %+v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestRunStreamsUnknownKind pins that a record of unknown kind fails the
// replay instead of being skipped.
func TestRunStreamsUnknownKind(t *testing.T) {
	streams := [][]trace.Ref{
		{{Kind: trace.Read, Addr: 0x10}},
		{{Kind: trace.IFetch, Addr: 0x20}, {Kind: trace.Kind(200), Addr: 0x30}},
	}
	for _, proto := range []Protocol{ProtoBase, ProtoDragon} {
		_, err := RunStreams(Config{Cache: testCache, Protocol: proto}, streams)
		if !errors.Is(err, trace.ErrBadTrace) {
			t.Errorf("%v: unknown kind: got %v, want ErrBadTrace", proto, err)
		}
	}
	tr := &trace.Trace{NCPU: 1, Refs: []trace.Ref{{Kind: trace.Kind(200)}}}
	if _, err := Run(Config{Cache: testCache, Protocol: ProtoBase}, tr); !errors.Is(err, trace.ErrBadTrace) {
		t.Errorf("Run: unknown kind: got %v, want ErrBadTrace", err)
	}
}

func TestRunStreamsWarmupCountsAllStreams(t *testing.T) {
	streams := [][]trace.Ref{
		{{Kind: trace.Read, Addr: 0x10}, {Kind: trace.Read, Addr: 0x10}},
		{{Kind: trace.Read, Addr: 0x20}},
	}
	if _, err := RunStreams(Config{Cache: testCache, Protocol: ProtoBase, WarmupRefs: 2}, streams); err != nil {
		t.Errorf("warmup 2 of 3 records: %v", err)
	}
	if _, err := RunStreams(Config{Cache: testCache, Protocol: ProtoBase, WarmupRefs: 3}, streams); !errors.Is(err, ErrBadConfig) {
		t.Errorf("warmup 3 of 3 records: got %v, want ErrBadConfig", err)
	}
	if _, err := RunStreams(Config{Cache: testCache, Protocol: ProtoBase}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no streams: got %v, want ErrBadConfig", err)
	}
}

// TestHolderCountsMatchCaches replays an 8-processor trace through small
// 2-way caches, so lines are evicted and invalidated constantly, and
// checks the snoop filter's count for every block against the caches.
func TestHolderCountsMatchCaches(t *testing.T) {
	tr := genTrace(t, "pero8", 5_000)
	streams := tr.PerCPU()
	for _, proto := range []Protocol{ProtoDragon, ProtoWriteInvalidate} {
		e, err := newEngine(Config{Cache: CacheConfig{Size: 2 * 1024, BlockSize: 16, Assoc: 2}, Protocol: proto}, len(streams))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(streams); err != nil {
			t.Fatal(err)
		}
		want := map[uint64]int32{}
		for _, c := range e.caches {
			for _, set := range c.sets {
				for _, l := range set {
					if l.state != invalid {
						want[l.tag]++
					}
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%v: caches empty after the run", proto)
		}
		for block, n := range want {
			present := int32(0)
			for _, c := range e.caches {
				if c.Present(block) {
					present++
				}
			}
			if present != n {
				t.Fatalf("%v: block %#x: %d lines but Present in %d caches", proto, block, n, present)
			}
			if e.held[block] != n {
				t.Errorf("%v: block %#x: holder count %d, held by %d caches", proto, block, e.held[block], n)
			}
		}
		if len(e.held) != len(want) {
			t.Errorf("%v: %d blocks counted, %d held", proto, len(e.held), len(want))
		}
	}
}
