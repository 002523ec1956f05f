package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"cepshed/internal/core"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
	"cepshed/perfbench/ref"
)

// testSizes shrinks every workload so a round takes well under a second.
var testSizes = sizes{
	fanoutEvents: 20000,
	burst:        burstShape{background: 600, bursts: 4, bikes: 4, rides: 8},
	trainEvents:  3000,
	workEvents:   8000,
	startups:     1,
}

var workloads = []string{wFanout, wKleene, wHybrid}

// Tracing wraps strategies and hooks the worker; it must not change what
// the program emits.
func TestTracedRoundsEmitSameMatches(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			r, failures, err := prepare(w, 7, testSizes, t.TempDir())
			if err != nil || len(failures) > 0 {
				t.Fatalf("prepare: %v %v", err, failures)
			}
			plain, err := r.round(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := r.round(1, newTracer(1<<16))
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.failures)+len(traced.failures) > 0 {
				t.Fatalf("checks failed: %v %v", plain.failures, traced.failures)
			}
			if len(plain.got) == 0 {
				t.Fatal("no queries")
			}
			for q, want := range plain.got {
				got := traced.got[q]
				if extra, missing := ref.Compare(want, got); extra != 0 || missing != 0 || len(want) == 0 {
					t.Errorf("%s: traced run emitted %d matches, untraced %d (%d extra, %d missing)",
						q, len(got), len(want), extra, missing)
				}
			}
		})
	}
}

// The wrapper must expose exactly the optional interfaces of what it
// wraps, so the runtime takes the same paths with and without tracing.
func TestWrapStrategyForwardsOptionalInterfaces(t *testing.T) {
	rt := newRoundTrace(newTracer(16), 0)
	none, _ := wrapStrategy(shed.None{}, rt)
	if _, ok := none.(shed.PlanReporter); ok {
		t.Error("wrapped None reports plan stats")
	}
	if _, ok := none.(shed.DurableStrategy); ok {
		t.Error("wrapped None claims durable state")
	}
	m := nfa.MustCompile(query.Q1("8ms"))
	model := core.MustTrain(m, ds1Dense(3, 3000), core.TrainConfig{Slices: 4, Seed: 1})
	h := core.NewHybrid(model, core.Config{Bound: 1000, Adapt: true})
	wrapped, _ := wrapStrategy(h, rt)
	if _, ok := wrapped.(shed.PlanReporter); !ok {
		t.Error("wrapped Hybrid lost PlanReporter")
	}
	ds, ok := wrapped.(shed.DurableStrategy)
	if !ok {
		t.Fatal("wrapped Hybrid lost DurableStrategy")
	}
	a, err := ds.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := h.MarshalState()
	if string(a) != string(b) {
		t.Error("MarshalState not forwarded")
	}
}

// A panel stream whose mean virtual latency overruns θ fails all of its
// events; the rest of the run's checks still hold.
func TestThetaOverrunFailsItsStream(t *testing.T) {
	v, failures := newVtime(testSizes.trainEvents, testSizes.workEvents)
	if len(failures) > 0 {
		t.Fatal(failures)
	}
	st, err := v.round(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed%testSizes.workEvents != 0 || st.attempted != panelStreams*testSizes.workEvents {
		t.Fatalf("%d of %d operations failed", st.failed, st.attempted)
	}
	for k := range v.panel {
		v.panel[k].bound = 1 // no run holds a 1 ns mean
	}
	st, err = v.round(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.failures) > 0 {
		t.Fatal(st.failures)
	}
	if st.failed != st.attempted {
		t.Errorf("every stream overruns θ, yet %d of %d operations failed", st.failed, st.attempted)
	}
}

// Every run reports exactly the metrics BENCHMARK.json declares: the
// end-to-end ones untraced, the per-layer ones traced.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := bench.EndToEnd
		if traced {
			want = bench.PerLayer
		}
		for _, w := range workloads {
			res, err := run(w, 1, time.Millisecond, traced, t.TempDir(), testSizes)
			if err != nil {
				t.Fatal(err)
			}
			// Only hybrid-q1-vtime fails operations, and only whole panel
			// streams, where Hybrid overruns θ.
			failedOK := res.Failed == 0 ||
				(w == wHybrid && res.Failed%testSizes.workEvents == 0 && res.Failed <= res.Attempted)
			if !res.Correct || res.Attempted == 0 || !failedOK {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			var names []string
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				names = append(names, m.Name)
			}
			if len(res.Metrics) != len(want) {
				var extra []string
				for k := range res.Metrics {
					extra = append(extra, k)
				}
				sort.Strings(extra)
				t.Errorf("%s traced=%v: reports %v, declared %v", w, traced, extra, names)
			}
			if !traced && res.Metrics["recall"].Value <= 0 {
				t.Errorf("%s: recall %v", w, res.Metrics["recall"].Value)
			}
		}
	}
}
