package main

import (
	"bytes"
	"math/rand"
	"sort"
	"time"

	"cepshed/internal/citibike"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/runtime"
)

// encodeNDJSON renders a stream in the ingest wire format, one event per
// line, the way a producer would send it to cepserved.
func encodeNDJSON(s event.Stream) []byte {
	var buf bytes.Buffer
	for _, e := range s {
		buf.Write(runtime.EncodeEvent(e))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// stamp gives every event its stream position as Seq, as the ingest
// producer does.
func stamp(s event.Stream) event.Stream {
	for i, e := range s {
		e.Seq = uint64(i)
	}
	return s
}

// fanoutStream is sparse DS1: ~100 µs mean inter-arrival.
func fanoutStream(seed int64, events int) event.Stream {
	return stamp(gen.DS1(gen.DS1Config{Events: events, InterArrival: 100 * event.Microsecond, Seed: seed}))
}

// burstShape fixes how the kleene-burst stream's bursts ride.
type burstShape struct {
	background int // citibike trips without the generator's own spikes
	bursts     int // bursts spread evenly over the background's span
	bikes      int // bikes riding in each burst
	rides      int // trips per bike per burst
}

// burstStream is a citibike trip stream with injected bursts. The
// background is citibike.Generate with its spikes turned off. Each burst
// sends fresh bikes round the hot stations 7→8→9→7… in quick succession
// (2–6 s apart, all within 80 s, well inside the 5 min window), so
// every burst chain has the same link structure and contributes the same
// number of matches whatever the seed; the seed moves timings, starting
// stations and interleaving. The generator's own spikes are not used: how
// many matches they produce is heavy-tailed in the seed (one 300-trip
// segment gave a coefficient of variation of 1.2–2.4 over 200 seeds), so
// seed-to-seed spread would swamp any change to the program.
func burstStream(seed int64, sh burstShape) event.Stream {
	bg := citibike.Generate(citibike.Config{Trips: sh.background, Seed: seed, Spikes: []citibike.Spike{}})
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	span := bg[len(bg)-1].Time
	hot := []int64{7, 8, 9}
	all := append(event.Stream{}, bg...)
	for b := 0; b < sh.bursts; b++ {
		t0 := span * event.Time(b+1) / event.Time(sh.bursts+1)
		for k := 0; k < sh.bikes; k++ {
			bike := int64(1000 + b*100 + k) // never a background bike, never reused
			st := rng.Intn(len(hot))
			t := t0 + event.Time(rng.Int63n(int64(5*time.Second)))
			for r := 0; r < sh.rides; r++ {
				t += event.Time(2*time.Second) + event.Time(rng.Int63n(int64(4*time.Second)))
				all = append(all, event.New("BikeTrip", t, map[string]event.Value{
					"bike":  event.Int(bike),
					"start": event.Int(hot[(st+r)%3]),
					"end":   event.Int(hot[(st+r+1)%3]),
					"user":  event.Str("member"),
				}))
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return stamp(all)
}

// ds1Dense is DS1 at the Fig 4 rate (15 µs mean inter-arrival).
func ds1Dense(seed int64, events int) event.Stream {
	return stamp(gen.DS1(gen.DS1Config{Events: events, InterArrival: 15 * event.Microsecond, Seed: seed}))
}
