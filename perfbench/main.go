// Command perfbench is cepshed's end-to-end benchmark. It drives the
// program's packages the way cmd/cepserved wires them (or, for Hybrid
// shedding, the paper's virtual-time loop), checks every output against
// an independent reference evaluator (package ref), and prints one JSON
// result line:
//
//	perfbench --workload fanout-wal --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds, writes the traced rounds' spans
// under .bench_build/trace/, prints their self times to stderr, and
// reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/perfbench/ref"
)

// sizes fixes how much input one round processes, and how it is fed.
type sizes struct {
	fanoutEvents int
	burst        burstShape
	trainEvents  int
	workEvents   int // per hybrid panel stream
	startups     int // stand-alone registry start-ups before each round (setup_s)

	// Ungated reference figures only (README.md): pace > 0 feeds the
	// serving workloads open loop at that many events/s; shards > 0
	// overrides their shard count.
	pace   float64
	shards int
}

var fullSizes = sizes{
	fanoutEvents: 200000,
	burst:        burstShape{background: 4000, bursts: 40, bikes: 10, rides: 12},
	trainEvents:  12000,
	workEvents:   30000,
	startups:     4,
}

// roundStats is what one round measured and found.
type roundStats struct {
	iv        interval
	runs      []interval // hybrid-q1-vtime: one per panel stream
	setup     time.Duration
	attempted int
	failed    int
	failures  []string
	recall    float64
	matches   int
	got       map[string]ref.Set // emitted match digests by query name
	closeNs   int64
	// Serving workloads: worst per-query hand-off → processed latency
	// (wall clock) and, when paced, how late the generator ran.
	latP50, latP99, genLate time.Duration
	vlatMean                float64 // µs, virtual
	vlatP99                 float64 // µs, virtual
	shedFrac                float64
	// vlatOverTheta is the worst panel stream's mean virtual latency
	// over its θ (virtual time).
	vlatOverTheta float64
	layers        layerRound
}

// layerRound is a traced round's per-layer raw data.
type layerRound struct {
	sums                        layerSums
	decodeNs, offerNs           int64
	pairs                       int
	heapPeak                    uint64
	walBytes                    int64
	egressBytes                 int64
	egressAllocs                float64
	busyNs                      int64
	workers                     int
	steals, created, dropped    uint64
	shed, in, snapshots         uint64
	snapshotBytes, snapPauseMax int64
}

// runner is one workload, prepared from a seed.
type runner interface {
	round(i int, tr *tracer) (roundStats, error)
}

const (
	wFanout = "fanout-wal"
	wKleene = "kleene-burst"
	wHybrid = "hybrid-q1-vtime"
)

// prepare builds a workload's inputs and reference from the seed.
// stateRoot holds the run's durable state.
func prepare(name string, seed int64, sz sizes, stateRoot string) (runner, []string, error) {
	switch name {
	case wFanout:
		s := fanoutStream(seed, sz.fanoutEvents)
		const win = int64(8 * time.Millisecond)
		q1b := `PATTERN SEQ(B a, C b, D c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V WITHIN 8ms`
		qs := []servedQuery{
			{spec: registry.QuerySpec{Tenant: "acme", Name: "q1", Query: query.Q1("8ms").String()},
				types: []string{"A", "B", "C"}, want: ref.Sorted(ref.SeqSum(s, "A", "B", "C", win))},
			{spec: registry.QuerySpec{Tenant: "acme", Name: "q4", Query: query.Q4("8ms").String()},
				types: []string{"A", "B", "C", "D"}, want: ref.Sorted(ref.NegSeq(s, win))},
			{spec: registry.QuerySpec{Tenant: "globex", Name: "q1bcd", Query: q1b},
				types: []string{"B", "C", "D"}, want: ref.Sorted(ref.SeqSum(s, "B", "C", "D", win))},
		}
		w := newServing(s, shardsOr(sz.shards, 2), true, stateRoot, qs)
		w.pace, w.startups = sz.pace, sz.startups
		return w, nil, nil
	case wKleene:
		s := burstStream(seed, sz.burst)
		qs := []servedQuery{{
			spec:  registry.QuerySpec{Tenant: "citibike", Name: "hotpaths", Query: query.HotPaths("5 min", 2, 5).String()},
			types: []string{"BikeTrip"},
			want:  ref.Sorted(ref.HotPaths(s, int64(5*time.Minute), 2, 5, 7, 8, 9)),
		}}
		w := newServing(s, shardsOr(sz.shards, 2), false, stateRoot, qs)
		w.pace, w.startups = sz.pace, sz.startups
		return w, nil, nil
	case wHybrid:
		v, failures := newVtime(sz.trainEvents, sz.workEvents)
		return v, failures, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wFanout, wKleene, wHybrid)
}

func shardsOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: fanout-wal, kleene-burst or hybrid-q1-vtime")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measure whole rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced rounds and report per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for state directories and trace files")
	pace := flag.Float64("pace", 0, "ungated reference figure: feed serving workloads open loop at this many events/s")
	shards := flag.Int("shards", 0, "ungated reference figure: shards per query on serving workloads (0: 2)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	sz := fullSizes
	sz.pace, sz.shards = *pace, *shards
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(workload string, seed int64, d time.Duration, traced bool, outDir string, sz sizes) (*result, error) {
	stateBase := filepath.Join(outDir, "state")
	if err := os.MkdirAll(stateBase, 0o755); err != nil {
		return nil, err
	}
	stateRoot, err := os.MkdirTemp(stateBase, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)

	r, failures, err := prepare(workload, seed, sz, stateRoot)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(1 << 20)
	}
	var plain, withTrace []roundStats
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		done := !time.Now().Before(deadline)
		if done && len(plain) > 0 && (!traced || len(withTrace) > 0) {
			break
		}
		var rtr *tracer
		if traced && i%2 == 1 {
			rtr = tr
		}
		st, err := r.round(i, rtr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "round %d traced=%v: %d events in %v (%.0f/s), cpu %v, setup %v, matches %d, recall %.6f, latency p50 %v p99 %v, generator late %v\n",
			i, rtr != nil, st.iv.events, st.iv.wall.Round(time.Millisecond), st.iv.throughput(),
			st.iv.cpu.Round(time.Millisecond), st.setup.Round(time.Microsecond), st.matches, st.recall,
			st.latP50, st.latP99, st.genLate)
		if rtr != nil {
			withTrace = append(withTrace, st)
		} else {
			plain = append(plain, st)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	all := append(append([]roundStats(nil), plain...), withTrace...)
	var recalls []float64
	for _, st := range all {
		res.Attempted += st.attempted
		res.Failed += st.failed
		failures = append(failures, st.failures...)
		recalls = append(recalls, st.recall)
	}
	// Every round replays the same input, so every round must emit the
	// same matches; for virtual-time shedding this is its determinism.
	for _, st := range all[1:] {
		if st.recall != all[0].recall || st.matches != all[0].matches {
			failures = append(failures, fmt.Sprintf("rounds differ: %d matches (recall %v) vs %d (recall %v)",
				st.matches, st.recall, all[0].matches, all[0].recall))
			break
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	res.Correct = len(failures) == 0

	if !traced {
		endToEnd(res, r, plain, recalls)
	} else {
		if err := perLayer(res, r, workload, seed, plain, withTrace, tr, outDir); err != nil {
			return nil, err
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return res, nil
}

func endToEnd(res *result, r runner, rounds []roundStats, recalls []float64) {
	ivs := make([]interval, len(rounds))
	for i, st := range rounds {
		ivs[i] = st.iv
	}
	if _, ok := r.(*vtime); ok {
		ivs = []interval{panelMedians(rounds)}
	}
	var setups, tput, cpu, allocs, bytes []float64
	for _, iv := range ivs {
		ev := float64(iv.events)
		tput = append(tput, iv.throughput())
		cpu = append(cpu, float64(iv.cpu.Microseconds())/ev)
		allocs = append(allocs, float64(iv.allocObjs)/ev)
		bytes = append(bytes, float64(iv.allocBytes)/ev)
	}
	switch w := r.(type) {
	case *serving:
		for _, d := range w.startupSamples {
			setups = append(setups, d.Seconds())
		}
	case *vtime:
		for _, d := range w.trainSamples {
			setups = append(setups, d.Seconds())
		}
		for _, st := range rounds {
			setups = append(setups, st.setup.Seconds())
		}
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("throughput_eps", "1/s", median(tput))
	put("cpu_us_per_event", "us", median(cpu))
	put("allocs_per_event", "count", median(allocs))
	put("alloc_bytes_per_event", "B", median(bytes))
	put("recall", "frac", median(recalls))
}

func perLayer(res *result, r runner, workload string, seed int64, plain, traced []roundStats, tr *tracer, outDir string) error {
	var events, matches float64
	var l layerRound
	var wall time.Duration
	var gcCPU, totalCPU float64
	var startupMs, closeMs, trainS, tputTraced, tputPlain []float64
	var snapBytes float64
	for _, st := range traced {
		events += float64(st.iv.events)
		matches += float64(st.matches)
		wall += st.iv.wall
		gcCPU += st.iv.gcCPU
		totalCPU += st.iv.totalCPU
		tputTraced = append(tputTraced, st.iv.throughput())
		closeMs = append(closeMs, float64(st.closeNs)/1e6)
		x := st.layers
		l.sums.merge(x.sums)
		l.decodeNs += x.decodeNs
		l.offerNs += x.offerNs
		l.pairs += x.pairs
		l.heapPeak = max(l.heapPeak, x.heapPeak)
		l.walBytes += x.walBytes
		l.egressBytes += x.egressBytes
		l.egressAllocs = max(l.egressAllocs, x.egressAllocs)
		l.busyNs += x.busyNs
		l.workers = x.workers
		l.steals += x.steals
		l.created += x.created
		l.dropped += x.dropped
		l.shed += x.shed
		l.in += x.in
		l.snapPauseMax = max(l.snapPauseMax, x.snapPauseMax)
		l.snapshots += x.snapshots
		snapBytes += float64(x.snapshotBytes)
	}
	for _, st := range plain {
		tputPlain = append(tputPlain, st.iv.throughput())
	}
	n := float64(len(traced))
	var vlatMean, vlatP99, vlatOverTheta, shedFrac float64
	switch r.(type) {
	case *serving:
		for _, st := range traced {
			startupMs = append(startupMs, float64(st.setup.Microseconds())/1e3)
		}
	case *vtime:
		for _, st := range traced {
			trainS = append(trainS, st.setup.Seconds())
		}
		vlatMean, vlatP99, shedFrac = traced[0].vlatMean, traced[0].vlatP99, traced[0].shedFrac
		vlatOverTheta = traced[0].vlatOverTheta
	}
	var decodeAllocs float64
	if w, ok := r.(*serving); ok {
		decodeAllocs = w.decodeAllocsPerEvent()
		if l.in > 0 {
			shedFrac = float64(l.shed) / float64(l.in)
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	s := l.sums
	put("runtime.decode_ns_per_event", "ns", div(float64(l.decodeNs), events))
	put("runtime.decode_allocs_per_event", "count", decodeAllocs)
	put("runtime.queue_wait_us_p50", "us", quantile(s.waits, 0.50))
	put("runtime.queue_wait_us_p99", "us", quantile(s.waits, 0.99))
	put("runtime.worker_busy_frac", "frac", div(float64(l.busyNs), float64(l.workers)*float64(wall.Nanoseconds())))
	put("runtime.steals_per_kevent", "count", div(1000*float64(l.steals), events))
	put("registry.offer_ns_per_event", "ns", div(float64(l.offerNs), events))
	put("registry.pairs_per_event", "count", div(float64(l.pairs), events))
	put("registry.startup_ms", "ms", median(startupMs))
	put("engine.process_ns_per_event", "ns", div(float64(s.processNs), events))
	put("engine.matches_per_event", "count", div(matches, events))
	put("engine.created_pms_per_event", "count", div(float64(l.created), events))
	put("engine.live_pms_peak", "count", float64(s.livePeak))
	put("engine.matches_per_created_pm", "frac", div(matches, float64(l.created)))
	put("core.admit_ns_per_event", "ns", div(float64(s.admitNs), events))
	put("core.observe_ns_per_event", "ns", div(float64(s.observeNs), events))
	put("core.control_ns_per_event", "ns", div(float64(s.controlNs), events))
	put("core.control_ns_max", "ns", float64(s.controlMax))
	put("core.admit_pass_frac", "frac", div(float64(s.admitted), float64(s.admitCalls)))
	put("core.dropped_pms_per_event", "count", div(float64(l.dropped), events))
	put("core.shed_event_frac", "frac", shedFrac)
	put("core.train_s", "s", median(trainS))
	put("core.vlatency_mean_us", "us", vlatMean)
	put("core.vlatency_p99_us", "us", vlatP99)
	put("core.vlatency_mean_over_theta", "frac", vlatOverTheta)
	put("checkpoint.wal_bytes_per_event", "B", div(float64(l.walBytes), events))
	put("checkpoint.snapshots", "count", div(float64(l.snapshots), n))
	put("checkpoint.snapshot_bytes", "B", div(snapBytes, n))
	put("checkpoint.snap_pause_max_us", "us", float64(l.snapPauseMax)/1e3)
	if w, ok := r.(*serving); ok && w.durable {
		put("checkpoint.close_ms", "ms", median(closeMs))
	} else {
		put("checkpoint.close_ms", "ms", 0)
	}
	put("egress.ns_per_match", "ns", div(float64(s.egressNs), matches))
	put("egress.bytes_per_match", "B", div(float64(l.egressBytes), matches))
	put("egress.allocs_per_match", "count", l.egressAllocs)
	put("go.gc_cpu_frac", "frac", div(gcCPU, totalCPU))
	put("go.heap_peak_mb", "MB", float64(l.heapPeak)/(1<<20))
	put("trace.overhead_frac", "frac", 1-div(median(tputTraced), median(tputPlain)))

	spans := tr.recorded()
	path, err := writeTrace(filepath.Join(outDir, "trace"), fmt.Sprintf("%s-seed%d.jsonl", workload, seed), spans, tr.dropped.Load())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans (%d dropped) written to %s\n", len(spans), tr.dropped.Load(), path)
	printSelfTimes(os.Stderr, selfTimes(spans))
	return nil
}
