package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/shed"
	"cepshed/internal/vclock"
)

// The traced run records spans around the benchmark's own calls into the
// program's public functions: start-up, decode, fan-out, the worker's
// strategy and match hooks, and shutdown. Nothing inside the program is
// instrumented. Spans live in a preallocated buffer and are written out
// when the run ends.

type spanName uint8

const (
	spRound spanName = iota
	spStartup
	spOpen
	spAdd
	spWaitReady
	spTrain
	spDecode
	spOffer
	spEvent
	spAdmit
	spProcess
	spObserve
	spControl
	spSink
	spClose
	spRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"round", "startup", "registry.Open", "registry.Add", "Instance.WaitReady",
	"core.Train", "LineDecoder.Next", "Registry.OfferBatch", "shard.event",
	"Strategy.AdmitEvent", "Engine.Process", "Strategy.Observe",
	"Strategy.Control", "sink.OnMatch", "Registry.Close", "metrics.Run",
}

// eventSample is the per-event span sampling stride: events whose Seq is a
// multiple of it get worker spans and a queue-wait sample. Every event is
// still timed into the per-layer sums.
const eventSample = 64

// batchSize is the ingest batch cepserved hands to Registry.OfferBatch.
const batchSize = 256

type span struct {
	start, end int64 // ns since the tracer's epoch
	ident      uint64
	id, parent uint32
	name       spanName
}

type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Uint32
	dropped atomic.Uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span at time start and returns its id (0 when the buffer
// is full; closing id 0 is a no-op). Only the opening goroutine may close
// it.
func (t *tracer) open(name spanName, parent uint32, ident uint64, start int64) uint32 {
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = span{start: start, end: -1, ident: ident, id: i + 1, parent: parent, name: name}
	return i + 1
}

func (t *tracer) close(id uint32, end int64) {
	if id != 0 {
		t.spans[id-1].end = end
	}
}

// add records a finished span.
func (t *tracer) add(name spanName, parent uint32, ident uint64, start, end int64) uint32 {
	id := t.open(name, parent, ident, start)
	t.close(id, end)
	return id
}

// recorded returns the finished spans. Call it once every goroutine that
// records has been joined.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	return out
}

// nameStats is one span name's aggregate: count, total duration and self
// time (duration minus the part its child spans cover).
type nameStats struct {
	count       int
	total, self int64
}

func selfTimes(spans []span) [numSpanNames]nameStats {
	var st [numSpanNames]nameStats
	childNs := make(map[uint32]int64)
	for _, s := range spans {
		// A worker's event span points at the hand-off that caused it; it
		// runs on another goroutine, so it takes nothing off its parent.
		if s.parent != 0 && s.name != spEvent {
			childNs[s.parent] += s.end - s.start
		}
	}
	for _, s := range spans {
		d := s.end - s.start
		self := d - childNs[s.id]
		st[s.name].count++
		st[s.name].total += d
		st[s.name].self += self
	}
	return st
}

// writeTrace writes the spans as JSON lines and returns the file path.
func writeTrace(dir, file string, spans []span, dropped uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"spans":%d,"dropped":%d,"clock":"ns since run start"}`+"\n", len(spans), dropped)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start":%d,"end":%d,"ident":%d}`+"\n",
			spanNames[s.name], s.id, s.parent, s.start, s.end, s.ident)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func printSelfTimes(w io.Writer, st [numSpanNames]nameStats) {
	order := make([]int, 0, numSpanNames)
	for i := range st {
		if st[i].count > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return st[order[a]].self > st[order[b]].self })
	fmt.Fprintf(w, "%-22s %9s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, i := range order {
		fmt.Fprintf(w, "%-22s %9d %14.3f %14.3f\n", spanNames[i], st[i].count,
			float64(st[i].total)/1e6, float64(st[i].self)/1e6)
	}
}

// roundTrace is one traced round's shared span context: the producer
// writes a batch's hand-off span and time before handing it off, so a
// worker that dequeues one of its events reads them after the channel
// send that carried it.
type roundTrace struct {
	tr         *tracer
	batchSpan  []uint32 // per ingest batch: its Registry.OfferBatch span
	batchStart []int64  // per ingest batch: hand-off time
	runSpan    uint32   // virtual-time rounds: the metrics.Run span

	mu     sync.Mutex
	strats []*tracedStrategy
}

func newRoundTrace(tr *tracer, events int) *roundTrace {
	nb := (events + batchSize - 1) / batchSize
	return &roundTrace{tr: tr, batchSpan: make([]uint32, nb), batchStart: make([]int64, nb)}
}

// tracedStrategy wraps a shard's strategy to time ρI, the engine step,
// adaptation and ρS on the worker, and to sample spans. All fields but
// the inner strategy are owned by the worker servicing the shard.
type tracedStrategy struct {
	inner shed.Strategy
	rt    *roundTrace
	en    *engine.Engine

	admitNs, processNs, observeNs, controlNs int64
	controlMax                               int64
	admitCalls, admitted                     uint64
	livePeak                                 int
	egressNs                                 int64
	waits                                    []int64 // sampled hand-off → dequeue, ns

	evSpan    uint32 // the sampled event in flight, 0 when none
	evSeq     uint64
	procStart int64
}

// wrapStrategy wraps inner, keeping exactly the optional interfaces inner
// implements, so the runtime takes the same paths (plan stats, durable
// strategy state) with and without tracing. The workloads wrap shed.None,
// which implements neither, and core.Hybrid, which implements both.
func wrapStrategy(inner shed.Strategy, rt *roundTrace) (shed.Strategy, *tracedStrategy) {
	w := &tracedStrategy{inner: inner, rt: rt}
	rt.mu.Lock()
	rt.strats = append(rt.strats, w)
	rt.mu.Unlock()
	pr, isPR := inner.(shed.PlanReporter)
	ds, isDS := inner.(shed.DurableStrategy)
	switch {
	case isPR && isDS:
		return &tracedPlanDurable{tracedStrategy: w, pr: pr, ds: ds}, w
	case isPR || isDS:
		panic(fmt.Sprintf("perfbench: no trace wrapper for %s, which implements only one of PlanReporter and DurableStrategy", inner.Name()))
	}
	return w, w
}

type tracedPlanDurable struct {
	*tracedStrategy
	pr shed.PlanReporter
	ds shed.DurableStrategy
}

func (t *tracedPlanDurable) PlanStats() shed.PlanStats     { return t.pr.PlanStats() }
func (t *tracedPlanDurable) MarshalState() ([]byte, error) { return t.ds.MarshalState() }
func (t *tracedPlanDurable) UnmarshalState(b []byte) error { return t.ds.UnmarshalState(b) }

func (w *tracedStrategy) Name() string { return w.inner.Name() }

func (w *tracedStrategy) Attach(en *engine.Engine) {
	w.en = en
	w.inner.Attach(en)
}

func (w *tracedStrategy) AdmitEvent(e *event.Event, now event.Time) bool {
	tr := w.rt.tr
	t0 := tr.now()
	if e.Seq%eventSample == 0 {
		parent := w.rt.runSpan
		if b := int(e.Seq / batchSize); b < len(w.rt.batchSpan) {
			parent = w.rt.batchSpan[b]
			w.waits = append(w.waits, t0-w.rt.batchStart[b])
		}
		w.evSpan, w.evSeq = tr.open(spEvent, parent, e.Seq, t0), e.Seq
	}
	ok := w.inner.AdmitEvent(e, now)
	t1 := tr.now()
	w.admitNs += t1 - t0
	w.admitCalls++
	if w.evSpan != 0 {
		tr.add(spAdmit, w.evSpan, e.Seq, t0, t1)
		if !ok {
			tr.close(w.evSpan, t1)
			w.evSpan = 0
		}
	}
	if ok {
		w.admitted++
		w.procStart = t1
	}
	return ok
}

// beforeProcess is the runtime's BeforeProcess hook: the engine step
// starts here.
func (w *tracedStrategy) beforeProcess() { w.procStart = w.rt.tr.now() }

func (w *tracedStrategy) Observe(res *engine.Result, now event.Time) {
	tr := w.rt.tr
	t0 := tr.now()
	w.processNs += t0 - w.procStart
	w.inner.Observe(res, now)
	t1 := tr.now()
	w.observeNs += t1 - t0
	if w.evSpan != 0 {
		tr.add(spProcess, w.evSpan, w.evSeq, w.procStart, t0)
		tr.add(spObserve, w.evSpan, w.evSeq, t0, t1)
	}
	if n := w.en.LiveCount(); n > w.livePeak {
		w.livePeak = n
	}
}

func (w *tracedStrategy) Control(now event.Time, lat event.Time) vclock.Cost {
	tr := w.rt.tr
	t0 := tr.now()
	c := w.inner.Control(now, lat)
	t1 := tr.now()
	d := t1 - t0
	w.controlNs += d
	if d > w.controlMax {
		w.controlMax = d
	}
	if w.evSpan != 0 {
		tr.add(spControl, w.evSpan, w.evSeq, t0, t1)
		tr.close(w.evSpan, t1)
		w.evSpan = 0
	}
	return c
}

// layerSums adds up the worker-side accumulators of a round's wrappers.
type layerSums struct {
	admitNs, processNs, observeNs, controlNs, controlMax, egressNs int64
	admitCalls, admitted                                           uint64
	livePeak                                                       int
	waits                                                          []float64 // µs
}

// merge adds x, measured apart from s (another round, or a run timed
// after s's), keeping the worst control step and live-PM peak.
func (s *layerSums) merge(x layerSums) {
	s.admitNs += x.admitNs
	s.processNs += x.processNs
	s.observeNs += x.observeNs
	s.controlNs += x.controlNs
	s.egressNs += x.egressNs
	s.controlMax = max(s.controlMax, x.controlMax)
	s.admitCalls += x.admitCalls
	s.admitted += x.admitted
	s.livePeak = max(s.livePeak, x.livePeak)
	s.waits = append(s.waits, x.waits...)
}

func (rt *roundTrace) sums() layerSums {
	var s layerSums
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, w := range rt.strats {
		s.admitNs += w.admitNs
		s.processNs += w.processNs
		s.observeNs += w.observeNs
		s.controlNs += w.controlNs
		s.egressNs += w.egressNs
		if w.controlMax > s.controlMax {
			s.controlMax = w.controlMax
		}
		s.admitCalls += w.admitCalls
		s.admitted += w.admitted
		s.livePeak += w.livePeak
		for _, ns := range w.waits {
			s.waits = append(s.waits, float64(ns)/1e3)
		}
	}
	return s
}
