// Package ref is the benchmark's reference evaluator: an independent,
// brute-force enumeration of the matches of the three query shapes the
// benchmark runs (Q1, Q4 with eager negation, and the HotPaths Kleene
// query of Listing 1), written from the semantics in docs/QUERYING.md
// without the program's engine, automaton compiler or query parser.
//
// Semantics followed:
//   - skip-till-any-match: every combination of events in stream (Seq)
//     order that satisfies the predicates is its own match;
//   - a match is inside the window when the time of its last event minus
//     the time of its first event is at most the window (the engine expires
//     a run once an arriving event is strictly more than the window past
//     the run's first event);
//   - NOT B between a and c: no B satisfying the guard predicates has a
//     sequence number strictly between those of a and c;
//   - Kleene a[]{min,max}: between min and max repetitions, consecutive
//     repetitions linked by the incremental predicates.
//
// Matches are identified by a 64-bit digest of their events' sequence
// numbers in pattern order, so a million-match reference costs 8 MB, not
// a million strings.
package ref

import (
	"sort"

	"cepshed/internal/event"
)

// Digest folds one sequence number into a running match digest. Start
// from DigestSeed and fold every event of the match in pattern order.
func Digest(h, seq uint64) uint64 {
	h ^= seq + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	// splitmix64 finaliser: spreads every input bit over the whole word.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// DigestSeed is the digest of the empty match.
const DigestSeed uint64 = 0x6a09e667f3bcc909

// DigestSeqs digests a whole match given its sequence numbers.
func DigestSeqs(seqs ...uint64) uint64 {
	h := DigestSeed
	for _, s := range seqs {
		h = Digest(h, s)
	}
	return h
}

// Set is a sorted list of match digests.
type Set []uint64

// Sorted sorts the digests in place and returns them as a Set.
func Sorted(d []uint64) Set {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return Set(d)
}

// Has reports whether the set holds digest d.
func (s Set) Has(d uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= d })
	return i < len(s) && s[i] == d
}

// Dups counts digests that occur more than once.
func (s Set) Dups() int {
	n := 0
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			n++
		}
	}
	return n
}

// Compare counts the digests of got that are missing from want and the
// digests of want that got lacks. Both must be sorted.
func Compare(want, got Set) (extra, missing int) {
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			missing++
			i++
		default:
			extra++
			j++
		}
	}
	return extra + len(got) - j, missing + len(want) - i
}

// ev is the reference's compact view of one input event.
type ev struct {
	seq  uint64
	time int64
	typ  string
	id   int64 // DS1 ID, citibike bike
	v    int64 // DS1 V
	from int64 // citibike start station
	to   int64 // citibike end station
}

func view(s event.Stream) []ev {
	out := make([]ev, len(s))
	for i, e := range s {
		out[i] = ev{
			seq:  e.Seq,
			time: int64(e.Time),
			typ:  e.Type,
			id:   e.Attrs["ID"].AsInt(),
			v:    e.Attrs["V"].AsInt(),
			from: e.Attrs["start"].AsInt(),
			to:   e.Attrs["end"].AsInt(),
		}
		if b, ok := e.Attrs["bike"]; ok {
			out[i].id = b.AsInt()
		}
	}
	return out
}

// byKey groups a stream's events by correlation key, keeping Seq order.
func byKey(evs []ev) map[int64][]ev {
	g := map[int64][]ev{}
	for _, e := range evs {
		g[e.id] = append(g[e.id], e)
	}
	return g
}

// SeqSum enumerates SEQ(X a, Y b, Z c) WHERE a.ID = b.ID AND a.ID = c.ID
// AND a.V + b.V = c.V WITHIN window — Q1 with (X, Y, Z) = (A, B, C).
func SeqSum(s event.Stream, x, y, z string, window int64) []uint64 {
	var out []uint64
	for _, evs := range byKey(view(s)) {
		lo := 0 // first event not older than the window, for the current c
		for ci, c := range evs {
			if c.typ != z {
				continue
			}
			for c.time-evs[lo].time > window {
				lo++
			}
			for ai := lo; ai < ci; ai++ {
				a := evs[ai]
				if a.typ != x {
					continue
				}
				for bi := ai + 1; bi < ci; bi++ {
					b := evs[bi]
					if b.typ == y && a.v+b.v == c.v {
						out = append(out, DigestSeqs(a.seq, b.seq, c.seq))
					}
				}
			}
		}
	}
	return out
}

// NegSeq enumerates SEQ(A a, NOT B b, C c, D d) WHERE a.ID = b.ID AND
// a.ID = c.ID AND c.ID = d.ID WITHIN window — Q4 under eager negation.
func NegSeq(s event.Stream, window int64) []uint64 {
	var out []uint64
	for _, evs := range byKey(view(s)) {
		for ai, a := range evs {
			if a.typ != "A" {
				continue
			}
			// Once a same-key B follows a, no later C can bind.
			for ci := ai + 1; ci < len(evs) && evs[ci].typ != "B"; ci++ {
				c := evs[ci]
				if c.time-a.time > window {
					break
				}
				if c.typ != "C" {
					continue
				}
				for di := ci + 1; di < len(evs); di++ {
					d := evs[di]
					if d.time-a.time > window {
						break
					}
					if d.typ == "D" {
						out = append(out, DigestSeqs(a.seq, c.seq, d.seq))
					}
				}
			}
		}
	}
	return out
}

// HotPaths enumerates Listing 1:
//
//	SEQ(BikeTrip+ a[]{minReps,maxReps}, BikeTrip b)
//	WHERE a[i+1].bike = a[i].bike AND a[i+1].start = a[i].end
//	AND a[last].bike = b.bike AND b.end IN hot
//	WITHIN window
func HotPaths(s event.Stream, window int64, minReps, maxReps int, hot ...int64) []uint64 {
	isHot := func(st int64) bool {
		for _, h := range hot {
			if st == h {
				return true
			}
		}
		return false
	}
	var out []uint64
	for _, trips := range byKey(view(s)) {
		// extend grows a chain of reps repetitions ending at trips[last];
		// every chain of admissible length pairs with each later
		// hot-ending trip of the bike inside the window.
		var extend func(first int64, last, reps int, h uint64)
		extend = func(first int64, last, reps int, h uint64) {
			if reps >= minReps {
				for bi := last + 1; bi < len(trips); bi++ {
					b := trips[bi]
					if b.time-first > window {
						break
					}
					if isHot(b.to) {
						out = append(out, Digest(h, b.seq))
					}
				}
			}
			if reps == maxReps {
				return
			}
			for ni := last + 1; ni < len(trips); ni++ {
				n := trips[ni]
				if n.time-first > window {
					break
				}
				if n.from == trips[last].to {
					extend(first, ni, reps+1, Digest(h, n.seq))
				}
			}
		}
		for i, t := range trips {
			extend(t.time, i, 1, Digest(DigestSeed, t.seq))
		}
	}
	return out
}
