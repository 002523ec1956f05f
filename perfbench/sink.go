package main

import (
	"sync/atomic"

	"cepshed/internal/engine"
	"cepshed/internal/runtime"
	"cepshed/perfbench/ref"
)

// countingWriter stands in for the egress connection: it keeps only the
// byte count.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// querySink collects one query's match digests into storage sized before
// the run, so recording a match allocates nothing. Matches beyond the
// storage are still counted, so a surplus shows as a count mismatch.
type querySink struct {
	got []uint64
	n   atomic.Int64
}

func newQuerySink(expected int) *querySink {
	return &querySink{got: make([]uint64, expected+expected/8+1024)}
}

func (q *querySink) record(m engine.Match) {
	h := ref.DigestSeed
	for _, e := range m.Events {
		h = ref.Digest(h, e.Seq)
	}
	if i := q.n.Add(1) - 1; i < int64(len(q.got)) {
		q.got[i] = h
	}
}

// digests returns the recorded digests, sorted. Call after the run.
func (q *querySink) digests() ref.Set {
	n := int(q.n.Load())
	if n > len(q.got) {
		n = len(q.got)
	}
	return ref.Sorted(q.got[:n])
}

// overflowed reports whether more matches arrived than there was room
// for.
func (q *querySink) overflowed() bool { return int(q.n.Load()) > len(q.got) }

// sink is the match egress: every match is encoded the way cepserved's
// -print-matches path encodes it, written to a counting writer, and its
// identity recorded for the check after the timed interval.
type sink struct {
	out     countingWriter
	queries map[string]*querySink // by query name; fixed before the run

	// Traced runs only: egress timing goes to the detecting shard's
	// strategy wrapper (same worker goroutine), and a sample of matches
	// is kept for the allocation count after the run.
	traced  map[string][]*tracedStrategy
	tr      *tracer
	sampled []sampledMatch
	nsample atomic.Int64
}

type sampledMatch struct {
	shard int
	m     engine.Match
}

const maxSampledMatches = 4096

// startTrace switches the sink to traced egress. Call before the registry
// starts; the wrappers are registered in traced as the shards are built.
func (s *sink) startTrace(tr *tracer) {
	s.traced = map[string][]*tracedStrategy{}
	s.tr = tr
	s.sampled = make([]sampledMatch, maxSampledMatches)
}

func (s *sink) onMatch(name string, shard int, m engine.Match) {
	q := s.queries[name]
	if s.traced == nil {
		s.out.Write(runtime.EncodeMatch(shard, m))
		q.record(m)
		return
	}
	w := s.traced[name][shard]
	t0 := s.tr.now()
	s.out.Write(runtime.EncodeMatch(shard, m))
	t1 := s.tr.now()
	w.egressNs += t1 - t0
	q.record(m)
	if i := s.nsample.Add(1) - 1; i%eventSample == 0 {
		s.tr.add(spSink, w.evSpan, m.Events[len(m.Events)-1].Seq, t0, t1)
		if k := i / eventSample; k < int64(len(s.sampled)) {
			s.sampled[k] = sampledMatch{shard: shard, m: m}
		}
	}
}

// egressAllocsPerMatch re-encodes the sampled matches with nothing else
// running and counts heap objects per encoding.
func (s *sink) egressAllocsPerMatch() float64 {
	n := int(s.nsample.Load()+eventSample-1) / eventSample
	if n > len(s.sampled) {
		n = len(s.sampled)
	}
	if n == 0 {
		return 0
	}
	var w countingWriter
	a := allocsOf(func() {
		for _, sm := range s.sampled[:n] {
			w.Write(runtime.EncodeMatch(sm.shard, sm.m))
		}
	})
	return float64(a) / float64(n)
}
