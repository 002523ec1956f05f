package ref

import (
	"testing"

	"cepshed/internal/event"
)

// ds1 builds a DS1-shaped stream from (type, time, ID, V) rows, stamping
// Seq in order.
func ds1(rows ...[4]any) event.Stream {
	s := make(event.Stream, len(rows))
	for i, r := range rows {
		s[i] = event.New(r[0].(string), event.Time(r[1].(int)), map[string]event.Value{
			"ID": event.Int(int64(r[2].(int))),
			"V":  event.Int(int64(r[3].(int))),
		})
		s[i].Seq = uint64(i)
	}
	return s
}

// trips builds a citibike-shaped stream from (time, bike, start, end).
func trips(rows ...[4]int) event.Stream {
	s := make(event.Stream, len(rows))
	for i, r := range rows {
		s[i] = event.New("BikeTrip", event.Time(r[0]), map[string]event.Value{
			"bike":  event.Int(int64(r[1])),
			"start": event.Int(int64(r[2])),
			"end":   event.Int(int64(r[3])),
			"user":  event.Str("member"),
		})
		s[i].Seq = uint64(i)
	}
	return s
}

func sameSet(t *testing.T, got []uint64, want ...[]uint64) {
	t.Helper()
	w := make([]uint64, len(want))
	for i, seqs := range want {
		w[i] = DigestSeqs(seqs...)
	}
	extra, missing := Compare(Sorted(w), Sorted(append([]uint64(nil), got...)))
	if extra != 0 || missing != 0 || len(got) != len(want) {
		t.Fatalf("got %d matches, want %d (extra %d, missing %d)", len(got), len(want), extra, missing)
	}
}

// The window is inclusive: a C exactly one window after its A still
// matches, one nanosecond later it does not.
func TestSeqSumWindowEdge(t *testing.T) {
	s := ds1(
		[4]any{"A", 0, 1, 2},   // 0
		[4]any{"B", 10, 1, 3},  // 1
		[4]any{"C", 100, 1, 5}, // 2: 100-0 = window → match (0,1,2)
		[4]any{"A", 101, 1, 1}, // 3
		[4]any{"B", 150, 1, 4}, // 4
		[4]any{"C", 101, 2, 5}, // 5: other ID, no match
		[4]any{"C", 202, 1, 5}, // 6: (3,4,6) at 202-101 = 101 > window; (0,*,6) too old
	)
	sameSet(t, SeqSum(s, "A", "B", "C", 100), []uint64{0, 1, 2})
}

// Every qualifying (a, b) pair before c is its own match, and the sum
// predicate filters pairs.
func TestSeqSumSkipTillAnyMatch(t *testing.T) {
	s := ds1(
		[4]any{"A", 0, 1, 1}, // 0
		[4]any{"A", 1, 1, 2}, // 1
		[4]any{"B", 2, 1, 2}, // 2
		[4]any{"B", 3, 1, 1}, // 3
		[4]any{"C", 4, 1, 3}, // 4: 1+2 (0,2), 2+1 (1,3); 1+1 and 2+2 fail
	)
	sameSet(t, SeqSum(s, "A", "B", "C", 100), []uint64{0, 2, 4}, []uint64{1, 3, 4})
}

// A same-ID B between a and c kills the run waiting for c; a B after c,
// or of another ID, does not.
func TestNegSeqNegatingB(t *testing.T) {
	s := ds1(
		[4]any{"A", 0, 1, 0}, // 0
		[4]any{"C", 1, 1, 0}, // 1: (0,1,·) survives — no B yet
		[4]any{"B", 2, 2, 0}, // 2: other ID
		[4]any{"B", 3, 1, 0}, // 3: kills A0 for any later C
		[4]any{"C", 4, 1, 0}, // 4: (0,4,·) negated
		[4]any{"A", 5, 1, 0}, // 5
		[4]any{"C", 6, 1, 0}, // 6: (5,6,·)
		[4]any{"D", 7, 1, 0}, // 7: completes (0,1,7), (5,6,7); (0,4,7) negated
		[4]any{"D", 8, 2, 0}, // 8: other ID
	)
	sameSet(t, NegSeq(s, 100), []uint64{0, 1, 7}, []uint64{5, 6, 7})
}

// Kleene bounds: with {2,5}, chains of 2..5 linked trips each pair with
// every later hot-ending trip of the bike; a single trip or a sixth
// repetition does not count.
func TestHotPathsKleeneLengths(t *testing.T) {
	// Bike 1 rides 1→2→3→4→5→6→8: six linked trips, then a hot-ending one.
	s := trips(
		[4]int{0, 1, 1, 2}, // 0
		[4]int{1, 1, 2, 3}, // 1
		[4]int{2, 1, 3, 4}, // 2
		[4]int{3, 1, 4, 5}, // 3
		[4]int{4, 1, 5, 6}, // 4
		[4]int{5, 1, 6, 8}, // 5: hot end (8)
	)
	// Contiguous chains i..j (j-i+1 in [2,5]) ending before trip 5, closed
	// by trip 5: starting at 0: 0-1, 0-2, 0-3, 0-4; at 1: 1-2, 1-3, 1-4;
	// at 2: 2-3, 2-4; at 3: 3-4 → 10 matches. Trip 5 is the only hot end.
	var want [][]uint64
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5 && j-i+1 <= 5; j++ {
			var m []uint64
			for k := i; k <= j; k++ {
				m = append(m, uint64(k))
			}
			want = append(want, append(m, 5))
		}
	}
	if len(want) != 10 {
		t.Fatalf("hand count: %d", len(want))
	}
	sameSet(t, HotPaths(s, 1000, 2, 5, 7, 8, 9), want...)

	// {5,5}: only the one five-trip chain 0..4 qualifies.
	sameSet(t, HotPaths(s, 1000, 5, 5, 7, 8, 9), []uint64{0, 1, 2, 3, 4, 5})
	// {2,2}: the four two-trip chains.
	sameSet(t, HotPaths(s, 1000, 2, 2, 7, 8, 9),
		[]uint64{0, 1, 5}, []uint64{1, 2, 5}, []uint64{2, 3, 5}, []uint64{3, 4, 5})
}

// The closing trip must end at a hot station and belong to the same bike;
// it need not continue the chain. A trip of another bike is ignored.
func TestHotPathsHotStationFilter(t *testing.T) {
	s := trips(
		[4]int{0, 1, 1, 2}, // 0
		[4]int{1, 1, 2, 3}, // 1
		[4]int{2, 2, 3, 7}, // 2: other bike, hot end — not a closer for bike 1
		[4]int{3, 1, 9, 4}, // 3: bike 1, cold end (4): no match
		[4]int{4, 1, 4, 9}, // 4: bike 1, hot end (9), starts where 3 ended
	)
	// Chains of bike 1: 0-1 (linked), 3-4 (linked). 1→3 is not linked
	// (3 starts at 9, 1 ended at 3). Closers: trip 4 only.
	// 0-1 + 4 → match; 0-1 + 3 → cold; chain 3 alone too short; 0-1-... no.
	sameSet(t, HotPaths(s, 1000, 2, 5, 7, 8, 9), []uint64{0, 1, 4})
	// Window: trip 4 is 4 after trip 0; a window of 3 drops the match.
	sameSet(t, HotPaths(s, 3, 2, 5, 7, 8, 9))
}
