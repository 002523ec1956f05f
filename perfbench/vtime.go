package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"cepshed/internal/core"
	"cepshed/internal/event"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
	"cepshed/perfbench/ref"
)

// vtime is the Fig 4 configuration: Q1 over DS1 at 15 µs, Hybrid with a
// synchronous planner, run through the paper's virtual-time loop
// (metrics.Run). Its shedding decisions follow virtual latency only, so
// every round emits the same matches. Online adaptation is off: its
// Count-Min sketches hash with random seeds, so with it on the decisions,
// and now and then the matches, differ from round to round.
//
// Its inputs are a fixed panel of work streams, the same whatever the
// seed: whether Hybrid holds θ depends on the stream, and a check that
// fails on some seeds only could not be counted alike in every run. A
// stream whose shed run overruns θ counts its events as failed operations.
type vtime struct {
	m     *nfa.Machine
	train event.Stream
	panel []vstream

	trainSamples []time.Duration // stand-alone core.Train timings
}

// vstream is one work stream of the panel with its reference and θ.
type vstream struct {
	name  string
	work  event.Stream
	want  ref.Set
	bound event.Time // θ
}

// boundFrac places θ at 30% of the unshed mean virtual latency.
const boundFrac = 0.3

// Panel seeds: one training stream, and work streams panelSeed+1 …
// panelSeed+panelStreams, each shed with the one trained model.
const (
	trainSeed    = 1
	panelSeed    = 1000
	panelStreams = 4
)

func newVtime(trainEvents, workEvents int) (*vtime, []string) {
	v := &vtime{
		m:     nfa.MustCompile(query.Q1("8ms")),
		train: ds1Dense(trainSeed, trainEvents),
	}
	var failures []string
	for i := int64(1); i <= panelStreams; i++ {
		s := vstream{name: fmt.Sprintf("ds1-%d", panelSeed+i), work: ds1Dense(panelSeed+i, workEvents)}
		s.want = ref.Sorted(ref.SeqSum(s.work, "A", "B", "C", int64(8*time.Millisecond)))
		// The unshed run sets θ; its match set must equal the reference.
		truth := metrics.Run(v.m, s.work, metrics.RunConfig{})
		s.bound = event.Time(boundFrac * float64(truth.Latency.Mean()))
		got, bad := keyDigests(truth)
		extra, missing := ref.Compare(s.want, got)
		if bad != 0 || extra != 0 || missing != 0 || got.Dups() != 0 {
			failures = append(failures, fmt.Sprintf("%s unshed run: %d matches, reference %d: %d not in reference, %d missing, %d unparsable keys",
				s.name, len(got), len(s.want), extra, missing, bad))
		}
		v.panel = append(v.panel, s)
	}
	// Set-up is one training per round; a few more here steady its median.
	for i := 0; i < extraTrainings; i++ {
		goruntime.GC()
		t0 := time.Now()
		core.MustTrain(v.m, v.train, core.TrainConfig{Slices: 4, Seed: 1})
		v.trainSamples = append(v.trainSamples, time.Since(t0))
	}
	return v, failures
}

const extraTrainings = 3

// keyDigests turns a run's match keys ("seq,seq,seq") into digests.
func keyDigests(r *metrics.RunResult) (ref.Set, int) {
	d := make([]uint64, 0, len(r.Matches))
	bad := 0
	for k := range r.Matches {
		h := ref.DigestSeed
		for _, f := range strings.Split(k, ",") {
			s, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				bad++
				break
			}
			h = ref.Digest(h, s)
		}
		d = append(d, h)
	}
	return ref.Sorted(d), bad
}

func (v *vtime) round(i int, tr *tracer) (roundStats, error) {
	var st roundStats
	var roundSpan uint32
	if tr != nil {
		roundSpan = tr.open(spRound, 0, uint64(i), tr.now())
	}
	goruntime.GC()
	t0 := time.Now()
	model, err := core.Train(v.m, v.train, core.TrainConfig{Slices: 4, Seed: 1})
	if err != nil {
		return st, err
	}
	st.setup = time.Since(t0)
	if tr != nil {
		end := tr.now()
		tr.add(spTrain, roundSpan, 0, end-int64(st.setup), end)
	}

	results := make([]*metrics.RunResult, len(v.panel))
	var rts []*roundTrace
	var heap *heapSampler
	for k, s := range v.panel {
		var strat shed.Strategy = core.NewHybrid(model, core.Config{Bound: s.bound})
		var rt *roundTrace
		if tr != nil {
			rt = newRoundTrace(tr, 0)
			strat, _ = wrapStrategy(strat, rt)
			rts = append(rts, rt)
		}
		goruntime.GC()
		if tr != nil {
			if heap == nil {
				heap = startHeapSampler(2 * time.Millisecond)
			}
			rt.runSpan = tr.open(spRun, roundSpan, uint64(k), tr.now())
		}
		u0 := readUsage()
		results[k] = metrics.Run(v.m, s.work, metrics.RunConfig{Strategy: strat})
		run := since(u0, len(s.work))
		st.runs = append(st.runs, run)
		st.iv = st.iv.add(run)
		if tr != nil {
			tr.close(rt.runSpan, tr.now())
		}
	}
	if tr != nil {
		tr.close(roundSpan, tr.now())
	}

	// Checks and figures come after the timed runs.
	st.got = map[string]ref.Set{}
	var wanted, found, shedEvents int
	var vlatSum float64
	for k, s := range v.panel {
		res := results[k]
		st.attempted += res.Events
		got, bad := keyDigests(res)
		st.got[s.name] = got
		extra, missing := ref.Compare(s.want, got)
		if bad != 0 || extra != 0 {
			st.failures = append(st.failures, fmt.Sprintf("%s: %d emitted matches not in the reference, %d unparsable", s.name, extra, bad))
		}
		wanted += len(s.want)
		found += len(s.want) - missing
		st.matches += len(res.Matches)
		// Hybrid must hold the mean virtual latency within θ. A stream
		// where it does not fails as a whole: its events are failed
		// operations.
		mean := res.Latency.Mean()
		if mean > s.bound {
			st.failed += res.Events
			fmt.Fprintf(os.Stderr, "FAILED: %s: mean virtual latency %v over θ %v, %d operations failed\n", s.name, mean, s.bound, res.Events)
		}
		st.vlatOverTheta = max(st.vlatOverTheta, float64(mean)/float64(s.bound))
		st.vlatP99 = max(st.vlatP99, float64(res.Latency.Percentile(99))/1e3)
		vlatSum += float64(mean) * float64(res.Events)
		shedEvents += res.ShedEvents
	}
	st.recall = float64(found) / float64(wanted)
	st.vlatMean = vlatSum / float64(st.attempted) / 1e3
	st.shedFrac = float64(shedEvents) / float64(st.attempted)

	if tr != nil {
		l := &st.layers
		for _, rt := range rts {
			l.sums.merge(rt.sums())
		}
		l.heapPeak = heap.Stop()
		for _, res := range results {
			l.created += res.Stats.CreatedPMs
			l.dropped += res.Stats.DroppedPMs
			l.in += uint64(res.Events)
			l.shed += uint64(res.ShedEvents)
		}
	}
	return st, nil
}

// panelMedians sums, over the panel streams, each stream's median over
// the rounds. The host steals CPU from the process in bursts, and a burst
// moves this figure only if it hits one stream in half of the rounds; it
// moves a round's total if it hits any of its streams.
func panelMedians(rounds []roundStats) interval {
	var total interval
	for k := range rounds[0].runs {
		var wall, cpu, objs, bytes []float64
		for _, st := range rounds {
			r := st.runs[k]
			wall = append(wall, float64(r.wall))
			cpu = append(cpu, float64(r.cpu))
			objs = append(objs, float64(r.allocObjs))
			bytes = append(bytes, float64(r.allocBytes))
		}
		total.events += rounds[0].runs[k].events
		total.wall += time.Duration(median(wall))
		total.cpu += time.Duration(median(cpu))
		total.allocObjs += uint64(median(objs))
		total.allocBytes += uint64(median(bytes))
	}
	return total
}
