package tables

import (
	"testing"
	"time"

	"repro/race"
	"repro/workloads"
)

// TestClockBenchCompactWins is the timing gate on the structure-aware
// clock layer: on every Go-native workload the compact representation
// must see the general representation's event stream and not run grossly
// slower. Wall time gets noise headroom; the gate only catches gross
// slowdowns. The two representations run in interleaved pairs and the
// gate bounds the median of the per-pair ratios, so load on the host hits
// both sides of each comparison alike. The deterministic side of the
// layer — identical race reports, zero demotions, every thread structured,
// compact peak clock bytes below general — is pinned by
// race.TestClockEquivalenceSerial and race.TestClockCompactStaysStructured.
func TestClockBenchCompactWins(t *testing.T) {
	const seed = 42
	for _, name := range []string{"fanin", "workerpool", "pipedag"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.Build(1)
		opts := func(c race.Clock) race.Options {
			return race.Options{Tool: race.FastTrack, Granularity: race.Dynamic, Seed: seed, Clock: c}
		}
		gen := race.Run(prog, opts(race.ClockGeneral)).Run.Events
		cmp := race.Run(prog, opts(race.ClockCompact)).Run.Events
		if gen == 0 || gen != cmp {
			t.Errorf("%s: event counts diverge: %d (general) vs %d (compact)", name, gen, cmp)
		}
		run := func(c race.Clock) func() time.Duration {
			return func() time.Duration { return race.Run(prog, opts(c)).Elapsed }
		}
		pair := func() (a, b func() time.Duration) { return run(race.ClockCompact), run(race.ClockGeneral) }
		// Generous bound: CI hosts are noisy.
		if ratio := medianPairedRatio(21, 1, pair); ratio > 1.25 {
			t.Errorf("%s: compact more than 25%% over general: median paired ratio %.3f", name, ratio)
		}
	}
}
