package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"syscall"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
	"cepshed/perfbench/ref"
)

// servedQuery is one registered query with the event types it subscribes
// to and its reference match set.
type servedQuery struct {
	spec  registry.QuerySpec
	types []string
	want  ref.Set
	pairs int // input events of a subscribed type
}

// serving drives the registry the way cepserved wires it with
// -strategy None -bound 0 -no-arbiter: one producer decodes NDJSON,
// stamps sequence numbers and offers 256-event batches.
type serving struct {
	queries []servedQuery
	shards  int
	durable bool
	ndjson  []byte
	events  int
	root    string
	pace    float64 // events/s, open loop; 0: closed loop

	// startups stand-alone start-ups run before each round; their median
	// is setup_s.
	startups int

	startupSamples []time.Duration
}

func newServing(s event.Stream, shards int, durable bool, root string, queries []servedQuery) *serving {
	w := &serving{queries: queries, shards: shards, durable: durable, ndjson: encodeNDJSON(s), events: len(s), root: root}
	for i := range w.queries {
		q := &w.queries[i]
		sub := map[string]bool{}
		for _, t := range q.types {
			sub[t] = true
		}
		for _, e := range s {
			if sub[e.Type] {
				q.pairs++
			}
		}
	}
	return w
}

func (w *serving) config(dir string, sk *sink, rt *roundTrace) registry.Config {
	cfg := registry.Config{
		Shards:   w.shards,
		QueueLen: 1024,
		Arbiter:  registry.ArbiterConfig{Interval: 250 * time.Millisecond, Disabled: true},
		// -strategy None: no per-shard strategy.
		NewStrategy: func(registry.QuerySpec, *nfa.Machine, time.Duration) (func(int) shed.Strategy, error) {
			return nil, nil
		},
	}
	if sk != nil {
		cfg.OnMatch = func(spec registry.QuerySpec, shard int, m engine.Match) { sk.onMatch(spec.Name, shard, m) }
	}
	if w.durable {
		cfg.StateDir = dir
		cfg.Durability = &checkpoint.Config{
			EveryEvents:   32768,
			FlushEvery:    1024,
			FlushBytes:    48 << 10,
			FlushInterval: 2 * time.Millisecond,
		}
	}
	if rt != nil {
		// The traced run wraps each shard's (no-op) strategy and hooks
		// BeforeProcess; the wrappers are indexed by shard for the sink.
		sk.startTrace(rt.tr)
		cfg.NewStrategy = func(spec registry.QuerySpec, _ *nfa.Machine, _ time.Duration) (func(int) shed.Strategy, error) {
			ws := make([]*tracedStrategy, w.shards)
			sk.traced[spec.Name] = ws
			return func(i int) shed.Strategy {
				s, t := wrapStrategy(shed.None{}, rt)
				ws[i] = t
				return s
			}, nil
		}
		cfg.TuneRuntime = func(spec registry.QuerySpec, rc *runtime.Config) {
			ws := sk.traced[spec.Name]
			rc.BeforeProcess = func(shard int, _ *event.Event) { ws[shard].beforeProcess() }
		}
	}
	return cfg
}

// startup opens the registry and waits until every query serves.
func (w *serving) startup(cfg registry.Config, tr *tracer, parent uint32) (*registry.Registry, time.Duration, error) {
	var sp uint32
	if tr != nil {
		sp = tr.open(spStartup, parent, 0, tr.now())
	}
	t0 := time.Now()
	mark := func(name spanName, from int64, ident uint64) int64 {
		if tr == nil {
			return 0
		}
		now := tr.now()
		tr.add(name, sp, ident, from, now)
		return now
	}
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	reg, err := registry.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	ts = mark(spOpen, ts, 0)
	ins := make([]*registry.Instance, len(w.queries))
	for i, q := range w.queries {
		if ins[i], err = reg.Add(q.spec); err != nil {
			reg.Close()
			return nil, 0, err
		}
		ts = mark(spAdd, ts, uint64(i))
	}
	for i, in := range ins {
		in.WaitReady()
		ts = mark(spWaitReady, ts, uint64(i))
	}
	d := time.Since(t0)
	if tr != nil {
		tr.close(sp, tr.now())
	}
	return reg, d, nil
}

// sampleStartups times n cold start-ups on their own (Open + Add +
// WaitReady; Close is untimed). They run without a state directory: with
// one, the start-up median followed the file system, not the program —
// on ext4 with online discard it sat at 1.35 ms in one 20-run stretch
// and 3.5 ms in the next, with identical code. Durable start-up,
// including state directory and WAL creation, is registry.startup_ms.
func (w *serving) sampleStartups(n int) error {
	for k := 0; k < n; k++ {
		cfg := w.config("", nil, nil)
		cfg.StateDir, cfg.Durability = "", nil
		goruntime.GC()
		reg, d, err := w.startup(cfg, nil, 0)
		if err != nil {
			return err
		}
		reg.Close()
		w.startupSamples = append(w.startupSamples, d)
	}
	return nil
}

func (w *serving) round(i int, tr *tracer) (roundStats, error) {
	var st roundStats
	if err := w.sampleStartups(w.startups); err != nil {
		return st, err
	}
	dir := filepath.Join(w.root, fmt.Sprintf("round-%d", i))
	sk := &sink{queries: map[string]*querySink{}}
	for _, q := range w.queries {
		sk.queries[q.spec.Name] = newQuerySink(len(q.want))
	}
	var rt *roundTrace
	var roundSpan uint32
	if tr != nil {
		rt = newRoundTrace(tr, w.events)
		roundSpan = tr.open(spRound, 0, uint64(i), tr.now())
	}
	goruntime.GC()
	reg, setup, err := w.startup(w.config(dir, sk, rt), tr, roundSpan)
	if err != nil {
		return st, err
	}
	st.setup = setup
	var wal *walMeter
	var heap *heapSampler
	if tr != nil {
		heap = startHeapSampler(2 * time.Millisecond)
		if w.durable {
			wal = startWALMeter(dir, 5*time.Millisecond)
		}
	}

	u0 := readUsage()
	dec := runtime.NewLineDecoder(bytes.NewReader(w.ndjson), 1<<20)
	batch := make([]*event.Event, 0, batchSize)
	var seq uint64
	var offered registry.OfferResult
	var decodeNs, offerNs int64
	for nb := 0; ; nb++ {
		var td int64
		if tr != nil {
			td = tr.now()
		}
		eof := false
		for len(batch) < batchSize {
			e, _, err := dec.Next()
			if err != nil {
				var lerr *runtime.LineError
				if errors.As(err, &lerr) {
					st.failed++
					st.failures = append(st.failures, lerr.Error())
					continue
				}
				eof = true
				break
			}
			e.Seq = seq
			seq++
			batch = append(batch, e)
		}
		var to int64
		if tr != nil {
			to = tr.now()
			decodeNs += to - td
			tr.add(spDecode, roundSpan, uint64(nb), td, to)
		}
		if len(batch) > 0 && w.pace > 0 {
			// Open loop: batch nb is due when its first event is.
			due := u0.wall.Add(time.Duration(float64(nb*batchSize) / w.pace * float64(time.Second)))
			if late := time.Since(due); late > st.genLate {
				st.genLate = late
			}
			time.Sleep(time.Until(due))
		}
		if len(batch) > 0 {
			var sp uint32
			if tr != nil {
				to = tr.now()
				rt.batchStart[nb] = to
				sp = tr.open(spOffer, roundSpan, uint64(nb), to)
				rt.batchSpan[nb] = sp
			}
			res := reg.OfferBatch(batch)
			if tr != nil {
				te := tr.now()
				offerNs += te - rt.batchStart[nb]
				tr.close(sp, te)
			}
			offered.Deliveries += res.Deliveries
			offered.DoorRejected += res.DoorRejected
			offered.ArbiterShed += res.ArbiterShed
			offered.FloorSkipped += res.FloorSkipped
			offered.Unrouted += res.Unrouted
			batch = batch[:0]
		}
		if eof {
			break
		}
	}
	var tc int64
	if tr != nil {
		tc = tr.now()
	}
	reg.Close()
	st.iv = since(u0, w.events)
	if tr != nil {
		st.closeNs = tr.now() - tc
		tr.add(spClose, roundSpan, 0, tc, tc+st.closeNs)
		tr.close(roundSpan, tr.now())
	}
	snap := reg.Snapshot()
	st.attempted = int(seq) + st.failed
	for _, q := range snap.Queries {
		st.latP50 = max(st.latP50, q.Runtime.P50)
		st.latP99 = max(st.latP99, q.Runtime.P99)
	}

	// Checks, after the timed interval.
	if int(seq) != w.events {
		st.failures = append(st.failures, fmt.Sprintf("decoded %d events, want %d", seq, w.events))
	}
	if offered.DoorRejected+offered.ArbiterShed+offered.FloorSkipped+offered.Unrouted != 0 {
		st.failures = append(st.failures, fmt.Sprintf("offer refused pairs: %+v", offered))
	}
	hits, want := 0, 0
	st.got = map[string]ref.Set{}
	for _, q := range w.queries {
		qs := snap.Queries[indexOf(snap, q.spec)]
		r := qs.Runtime
		if int(r.EventsIn) != q.pairs || r.EventsIn != r.EventsProcessed+r.EventsShed+r.ShardQuarantined || r.EventsShed != 0 || r.ShardQuarantined != 0 {
			st.failures = append(st.failures, fmt.Sprintf("%s: events_in %d (want %d) processed %d shed %d quarantined %d",
				q.spec.ID(), r.EventsIn, q.pairs, r.EventsProcessed, r.EventsShed, r.ShardQuarantined))
		}
		qk := sk.queries[q.spec.Name]
		got := qk.digests()
		st.got[q.spec.Name] = got
		extra, missing := ref.Compare(q.want, got)
		if d := got.Dups(); extra != 0 || missing != 0 || d != 0 || qk.overflowed() {
			st.failures = append(st.failures, fmt.Sprintf("%s: %d matches, reference %d: %d not in reference, %d missing, %d duplicates",
				q.spec.ID(), qk.n.Load(), len(q.want), extra, missing, d))
		}
		hits += len(q.want) - missing
		want += len(q.want)
	}
	st.recall = float64(hits) / float64(want)
	st.matches = int(snap.Matches)

	if tr != nil {
		l := &st.layers
		l.sums = rt.sums()
		l.decodeNs, l.offerNs = decodeNs, offerNs
		l.pairs = offered.Deliveries
		l.heapPeak = heap.Stop()
		if wal != nil {
			l.walBytes = wal.Stop()
		}
		l.egressBytes = sk.out.n.Load()
		l.egressAllocs = sk.egressAllocsPerMatch()
		for _, qs := range snap.Queries {
			r := qs.Runtime
			l.busyNs += r.BusyNs
			l.workers += r.Workers
			l.steals += r.Steals
			l.created += r.CreatedPMs
			l.dropped += r.DroppedPMs
			l.shed += r.EventsShed
			l.in += r.EventsIn
			l.snapshots += r.Snapshots
			l.snapshotBytes += r.SnapshotBytes
			if r.SnapPauseMaxNs > l.snapPauseMax {
				l.snapPauseMax = r.SnapPauseMaxNs
			}
		}
	}
	return st, nil
}

func indexOf(s registry.Snapshot, spec registry.QuerySpec) int {
	for i, q := range s.Queries {
		if q.Spec.ID() == spec.ID() {
			return i
		}
	}
	return -1
}

// decodeAllocsPerEvent decodes the whole input once with nothing else
// running and counts heap objects per event.
func (w *serving) decodeAllocsPerEvent() float64 {
	a := allocsOf(func() {
		dec := runtime.NewLineDecoder(bytes.NewReader(w.ndjson), 1<<20)
		for {
			if _, _, err := dec.Next(); err != nil {
				var lerr *runtime.LineError
				if !errors.As(err, &lerr) {
					return
				}
			}
		}
	})
	return float64(a) / float64(w.events)
}

// walMeter adds up the bytes written to the query WALs of one state
// directory. A WAL generation is renamed to .wal.prev at each snapshot
// and replaced at the next one, so the meter polls each .wal.prev path
// and banks a generation's size when a new file (inode) takes its place.
type walMeter struct {
	dir    string
	stop   chan struct{}
	done   chan struct{}
	cur    map[string]walGen // by .wal.prev path
	banked int64
}

type walGen struct {
	ino  uint64
	size int64
}

func startWALMeter(dir string, every time.Duration) *walMeter {
	m := &walMeter{dir: dir, stop: make(chan struct{}), done: make(chan struct{}), cur: map[string]walGen{}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			m.poll()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *walMeter) poll() {
	paths, _ := filepath.Glob(filepath.Join(m.dir, "q-*", "shard-*.wal.prev")) // only a bad pattern errors
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue // rotated away between Glob and Stat; seen next poll
		}
		ino := fi.Sys().(*syscall.Stat_t).Ino
		g := m.cur[p]
		if g.ino != ino {
			m.banked += g.size
		}
		m.cur[p] = walGen{ino: ino, size: fi.Size()}
	}
}

// Stop ends polling after the registry closed and returns the total: every
// banked generation, the last .wal.prev generations and the live WALs.
func (m *walMeter) Stop() int64 {
	close(m.stop)
	<-m.done
	m.poll()
	total := m.banked
	for _, g := range m.cur {
		total += g.size
	}
	paths, _ := filepath.Glob(filepath.Join(m.dir, "q-*", "shard-*.wal"))
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}
