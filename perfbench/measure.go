package main

import (
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process counters the
// end-to-end metrics are differences of.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// interval is what one timed interval cost.
type interval struct {
	events     int
	wall       time.Duration
	cpu        time.Duration
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func since(u0 usage, events int) interval {
	u1 := readUsage()
	return interval{
		events:     events,
		wall:       u1.wall.Sub(u0.wall),
		cpu:        u1.cpu - u0.cpu,
		allocObjs:  u1.allocObjs - u0.allocObjs,
		allocBytes: u1.allocBytes - u0.allocBytes,
		gcCPU:      u1.gcCPU - u0.gcCPU,
		totalCPU:   u1.totalCPU - u0.totalCPU,
	}
}

// add sums two intervals, as for runs timed one after another.
func (iv interval) add(o interval) interval {
	return interval{
		events:     iv.events + o.events,
		wall:       iv.wall + o.wall,
		cpu:        iv.cpu + o.cpu,
		allocObjs:  iv.allocObjs + o.allocObjs,
		allocBytes: iv.allocBytes + o.allocBytes,
		gcCPU:      iv.gcCPU + o.gcCPU,
		totalCPU:   iv.totalCPU + o.totalCPU,
	}
}

func (iv interval) throughput() float64 { return float64(iv.events) / iv.wall.Seconds() }

// heapObjectBytes reads the live heap size, for the sampled peak.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		var peak uint64
		for {
			if b := heapObjectBytes(); b > peak {
				peak = b
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// allocsOf counts the heap objects f allocates, as /gc/heap/allocs:objects
// counts them (tiny objects only by their shared blocks), so that it is on
// the scale of allocs_per_event. Call it with no other goroutine of the
// benchmark running, as testing.AllocsPerRun does.
func allocsOf(f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	u0 := readUsage()
	f()
	return readUsage().allocObjs - u0.allocObjs
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v (q in [0,1]).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}
