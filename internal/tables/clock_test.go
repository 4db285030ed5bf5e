package tables

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/race"
)

// TestClockBenchCompactWins is the regression gate on the structure-aware
// clock lane: on every Go-native workload the compact representation must
// stay fully structured, report the exact general-mode race set, and beat
// the general representation on peak thread-clock bytes. Wall time gets
// noise headroom — the committed BENCH_clock.json records the real margins;
// this gate only catches gross slowdowns. The two representations run in
// interleaved pairs and the gate bounds the median of the per-pair ratios,
// so load on the host hits both sides of each comparison alike.
func TestClockBenchCompactWins(t *testing.T) {
	r := NewRunner(Config{Seed: 42, TimingRuns: 1, Benchmarks: clockWorkloads})
	rows := r.ClockBench()
	if want := 2 * len(clockWorkloads); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for i := 0; i < len(rows); i += 2 {
		gen, cmp := rows[i], rows[i+1]
		if gen.Clock != "general" || cmp.Clock != "compact" || gen.Program != cmp.Program {
			t.Fatalf("row pairing broken: %+v / %+v", gen, cmp)
		}
		name := gen.Program
		if gen.Events == 0 || gen.Events != cmp.Events {
			t.Errorf("%s: event counts diverge: %d vs %d", name, gen.Events, cmp.Events)
		}
		if !cmp.RacesIdentical || cmp.Races != gen.Races {
			t.Errorf("%s: compact races (%d) not identical to general (%d)", name, cmp.Races, gen.Races)
		}
		if cmp.Demotions != 0 {
			t.Errorf("%s: %d demotions on a Go-native workload", name, cmp.Demotions)
		}
		if int(cmp.StructuredThreads) != cmp.Threads {
			t.Errorf("%s: %d structured threads, want %d", name, cmp.StructuredThreads, cmp.Threads)
		}
		if gen.PeakClockBytes <= 0 || cmp.PeakClockBytes >= gen.PeakClockBytes {
			t.Errorf("%s: compact peak %dB not below general peak %dB",
				name, cmp.PeakClockBytes, gen.PeakClockBytes)
		}
	}
	for _, s := range r.Specs() {
		prog := s.Build(r.cfg.Scale)
		run := func(c race.Clock) func() time.Duration {
			return func() time.Duration {
				return race.Run(prog, race.Options{
					Tool: race.FastTrack, Granularity: race.Dynamic, Seed: r.cfg.Seed, Clock: c,
				}).Elapsed
			}
		}
		pair := func() (a, b func() time.Duration) { return run(race.ClockCompact), run(race.ClockGeneral) }
		// Generous bound: CI hosts are noisy; the lane's JSON is the record.
		if ratio := medianPairedRatio(21, 1, pair); ratio > 1.25 {
			t.Errorf("%s: compact more than 25%% over general: median paired ratio %.3f", s.Name, ratio)
		}
	}
}

// TestWriteClockJSONShape checks the document round-trips with the config
// block CI consumes.
func TestWriteClockJSONShape(t *testing.T) {
	r := NewRunner(Config{Seed: 42, TimingRuns: 1, Benchmarks: []string{"workerpool"}})
	var buf bytes.Buffer
	if err := r.WriteClockJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc ClockBenchJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Config.Seed != 42 || doc.Config.GOMAXPROCS <= 0 {
		t.Errorf("config block incomplete: %+v", doc.Config)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(doc.Rows))
	}
}
