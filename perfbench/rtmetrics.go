package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// The runtime layer: Go's GC and scheduler, read from runtime/metrics.

const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mGCPause  = "/sched/pauses/total/gc:seconds"
	mSchedLat = "/sched/latencies:seconds"
	mAllocs   = "/gc/heap/allocs:objects"
	mLiveHeap = "/gc/heap/live:bytes"
)

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	gcCPU, totalCPU float64
	allocs          uint64
	pause, sched    *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPause}, {Name: mSchedLat}, {Name: mAllocs}}
	metrics.Read(s)
	return rtSnap{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		pause:    s[2].Value.Float64Histogram(),
		sched:    s[3].Value.Float64Histogram(),
		allocs:   s[4].Value.Uint64(),
	}
}

// rtDelta is the runtime's cost over one window.
type rtDelta struct {
	gcCPUFrac    float64
	gcPauseP99us float64
	schedP99us   float64
	allocs       uint64
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{allocs: b.allocs - a.allocs}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	d.gcPauseP99us = histP99(a.pause, b.pause) * 1e6
	d.schedP99us = histP99(a.sched, b.sched) * 1e6
	return d
}

// histP99 is the 99th percentile of the observations between two
// readings of one histogram: the upper bound of the bucket that holds
// it (its lower bound when the bucket is open-ended).
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapSampler tracks the live heap while it runs: the peak of each
// sub-window of heapWindow.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

// heapWindow is the sub-window one heap peak is taken over. The live
// heap is known at the end of each GC cycle; the median of many
// sub-window peaks does not hinge on where one cycle happened to end.
const heapWindow = 500 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mLiveHeap}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		start, peak := time.Now(), uint64(0)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Since(start) >= heapWindow {
				h.peaks = append(h.peaks, float64(peak))
				start, peak = time.Now(), 0
			}
			select {
			case <-h.stopc:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median sub-window peak of the
// live heap, in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return median(h.peaks)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
