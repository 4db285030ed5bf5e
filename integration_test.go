package repro_test

import (
	"testing"

	"repro/race"
	"repro/workloads"
)

// TestEveryWorkloadUnderEveryTool is the grand smoke matrix: all fourteen
// benchmarks under all six detectors complete, report deterministic
// counts, and respect per-tool soundness expectations.
func TestEveryWorkloadUnderEveryTool(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is several seconds")
	}
	tools := []race.Tool{
		race.FastTrack, race.DJITPlus, race.DRD,
		race.InspectorXE, race.Eraser,
	}
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, tool := range tools {
				rep := race.Run(spec.Program(), race.Options{
					Tool: tool, Granularity: race.Dynamic, Seed: 42,
				})
				if rep.TimedOut || rep.OOM {
					t.Errorf("%v did not finish", tool)
					continue
				}
				if rep.Run.Accesses == 0 {
					t.Errorf("%v saw no accesses", tool)
				}
				// Happens-before tools on race-free pbzip2 must stay silent.
				if spec.Name == "pbzip2" && tool != race.Eraser && len(rep.Races) != 0 {
					t.Errorf("%v false-alarmed on pbzip2: %v", tool, rep.Races)
				}
				// Every tool finds something on benchmarks with real races
				// (except that word-masking etc. never applies here since
				// each workload's races include ≥1 word-aligned conflict).
				if spec.Races > 0 && tool != race.Eraser && len(rep.Races) == 0 {
					t.Errorf("%v found nothing on %s (want ≥1)", tool, spec.Name)
				}
			}
		})
	}
}

// TestGranularityMatrixDeterminism: two full sweeps of the suite at every
// granularity must agree byte-for-byte in their race reports.
func TestGranularityMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is several seconds")
	}
	sweep := func() map[string][]race.Race {
		out := map[string][]race.Race{}
		for _, spec := range workloads.All() {
			for _, g := range []race.Granularity{race.Byte, race.Word, race.Dynamic} {
				rep := race.Run(spec.Program(), race.Options{Granularity: g, Seed: 7})
				out[spec.Name+g.String()] = rep.Races
			}
		}
		return out
	}
	a, b := sweep(), sweep()
	for k, ra := range a {
		rb := b[k]
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d races", k, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Errorf("%s report %d differs", k, i)
			}
		}
	}
}
