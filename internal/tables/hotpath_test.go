package tables

import (
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/workloads"
)

// captureStream runs the program once and returns its full event stream.
func captureStream(spec workloads.Spec, scale int, seed int64) []event.Rec {
	var recs []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		recs = append(recs, b.Recs...)
		event.PutBatch(b)
	}}
	sim.Run(spec.Build(scale), enc, sim.Options{Seed: seed})
	enc.Close()
	return recs
}

// elideStream replays recs through the front-line filter and returns the
// surviving stream plus the elided count.
func elideStream(recs []event.Rec) ([]event.Rec, uint64) {
	var out []event.Rec
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		out = append(out, b.Recs...)
		event.PutBatch(b)
	}}
	el := event.NewElider(enc, event.EliderOptions{})
	for i := range recs {
		event.ApplyRec(el, &recs[i])
	}
	enc.Close()
	return out, el.Elided()
}

// wireBytes measures the columnar payload size of the stream at the
// transport batch size (frame headers excluded — their size is fixed).
func wireBytes(recs []event.Rec) uint64 {
	var total uint64
	var buf []byte
	for lo := 0; lo < len(recs); lo += event.DefaultBatchSize {
		hi := min(lo+event.DefaultBatchSize, len(recs))
		buf = wire.AppendColumnar(buf[:0], recs[lo:hi])
		total += uint64(len(buf))
	}
	return total
}

// chunkCols pre-builds the stream's columnar batches at the transport
// batch size, so the timed region measures only detector ingestion — a
// real session receives its Cols already decoded from the wire.
func chunkCols(recs []event.Rec) []*event.Cols {
	var batches []*event.Cols
	for lo := 0; lo < len(recs); lo += event.DefaultBatchSize {
		hi := min(lo+event.DefaultBatchSize, len(recs))
		c := &event.Cols{}
		for _, r := range recs[lo:hi] {
			c.Append(r)
		}
		batches = append(batches, c)
	}
	return batches
}

// applyStream feeds the stream to a fresh dynamic-granularity detector via
// the chosen path and returns the apply wall time and the race count.
// Exactly one of recs/batches is used.
func applyStream(recs []event.Rec, batches []*event.Cols) (time.Duration, int) {
	d := detector.New(detector.Config{Granularity: detector.Dynamic})
	start := time.Now()
	if batches != nil {
		for _, c := range batches {
			d.ApplyCols(c)
		}
	} else {
		for i := range recs {
			event.ApplyRec(d, &recs[i])
		}
	}
	return time.Since(start), len(d.Races())
}

// TestHotpathBenchGates pins the columnar hot path (front-line elision,
// run-collapsed columnar apply) on its locality anchor and one honest
// negative:
//
//   - losslessness: the program's full and elided streams, each applied
//     record-at-a-time and columnar, report the same race count;
//   - accounting: applied + elided == events;
//   - elision only ever shrinks the wire: elide-on bytes <= elide-off
//     bytes on every workload, including the negative;
//   - the deterministic wins: on streamcluster the elider must drop a
//     meaningful fraction of the stream and shrink the wire payload
//     accordingly (both are exact, replay-stable numbers);
//   - a coarse timing sanity bound: the fully optimized path (elide +
//     columnar apply) must not be slower than the fully unoptimized one
//     (record apply, no elision) on the locality anchor. The margin is a
//     few percent, so the gate compares the two in interleaved pairs,
//     each on fresh copies of the streams, and bounds the median of the
//     per-pair ratios, not two separate bests.
func TestHotpathBenchGates(t *testing.T) {
	const scale, seed = 1, 42
	streams := map[string][2][]event.Rec{}
	for _, name := range []string{"streamcluster", "canneal"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		full := captureStream(spec, scale, seed)
		elided, nElided := elideStream(full)
		streams[name] = [2][]event.Rec{full, elided}
		if got := uint64(len(elided)) + nElided; got != uint64(len(full)) {
			t.Errorf("%s: stream accounting broken: applied %d + elided %d != %d events",
				name, len(elided), nElided, len(full))
		}
		races := -1
		for _, recs := range [][]event.Rec{full, elided} {
			for _, cols := range [][]*event.Cols{nil, chunkCols(recs)} {
				_, n := applyStream(recs, cols)
				if races < 0 {
					races = n
				} else if n != races {
					t.Errorf("%s: %d races on one hot-path cell, %d on another — hot path is not lossless",
						name, n, races)
				}
			}
		}
		on, off := wireBytes(elided), wireBytes(full)
		if on > off {
			t.Errorf("%s: elision grew the wire payload: %d > %d bytes", name, on, off)
		}
		if name != "streamcluster" {
			continue
		}
		// The locality anchor's deterministic wins (exact at Seed 42,
		// Scale 1; measured 29% elided, 20% fewer wire bytes).
		if frac := float64(nElided) / float64(len(full)); frac < 0.20 {
			t.Errorf("streamcluster: elided fraction %.3f, want >= 0.20", frac)
		}
		if ratio := float64(on) / float64(off); ratio > 0.90 {
			t.Errorf("streamcluster: elided wire bytes at %.3f of baseline, want <= 0.90", ratio)
		}
	}
	if raceDetectorOn {
		return // timing under -race measures the instrumentation, not the code
	}
	full, elided := streams["streamcluster"][0], streams["streamcluster"][1]
	ratio := medianPairedRatio(31, 5, func() (a, b func() time.Duration) {
		f := append([]event.Rec(nil), full...)
		e := append([]event.Rec(nil), elided...)
		cols := chunkCols(e)
		a = func() time.Duration { d, _ := applyStream(e, cols); return d }
		b = func() time.Duration { d, _ := applyStream(f, nil); return d }
		return a, b
	})
	if ratio > 1.0 {
		t.Errorf("streamcluster: optimized hot path slower than baseline: median paired ratio %.3f", ratio)
	}
}
