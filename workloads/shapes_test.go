package workloads_test

import (
	"testing"

	"repro/race"
	"repro/workloads"
)

// report caches one run per (benchmark, granularity) across the tests in
// this file.
var shapeCache = map[string]race.Report{}

func report(t *testing.T, name string, g race.Granularity) race.Report {
	t.Helper()
	key := name + g.String()
	if r, ok := shapeCache[key]; ok {
		return r
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := race.Run(spec.Program(), race.Options{Granularity: g, Seed: 42})
	shapeCache[key] = r
	return r
}

// Every workload's thread count matches its spec, and every workload
// produces a substantial event stream.
func TestWorkloadBasics(t *testing.T) {
	for _, spec := range workloads.All() {
		rep := report(t, spec.Name, race.Dynamic)
		if rep.Run.Threads != spec.Threads {
			t.Errorf("%s: %d threads, spec says %d", spec.Name, rep.Run.Threads, spec.Threads)
		}
		if rep.Run.Accesses < 50_000 {
			t.Errorf("%s: only %d accesses", spec.Name, rep.Run.Accesses)
		}
	}
}

// Scale must scale the access volume roughly linearly.
func TestScaleGrowsWork(t *testing.T) {
	spec, _ := workloads.ByName("canneal")
	s1, _ := race.Baseline(spec.Build(1), 1)
	s3, _ := race.Baseline(spec.Build(3), 1)
	ratio := float64(s3.Accesses) / float64(s1.Accesses)
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("scale 3 grew accesses by %.2f×", ratio)
	}
}

// Word-sized benchmarks: byte and word granularity must produce identical
// shadow statistics (Table 1's "word buys nothing" rows).
func TestWordEqualsByteOnWordBenchmarks(t *testing.T) {
	for _, name := range []string{"facesim", "fluidanimate", "canneal", "streamcluster", "hmmsearch"} {
		b := report(t, name, race.Byte).Detector
		w := report(t, name, race.Word).Detector
		if b.MaxVectorClocks != w.MaxVectorClocks {
			t.Errorf("%s: byte %d vs word %d clocks", name, b.MaxVectorClocks, w.MaxVectorClocks)
		}
	}
}

// Sub-word benchmarks: word granularity genuinely shrinks the shadow
// (ferret's byte flags, ffmpeg's 2-byte samples).
func TestWordShrinksSubwordBenchmarks(t *testing.T) {
	for _, name := range []string{"ferret", "ffmpeg"} {
		b := report(t, name, race.Byte).Detector
		w := report(t, name, race.Word).Detector
		if w.MaxVectorClocks >= b.MaxVectorClocks {
			t.Errorf("%s: word did not shrink clocks (%d vs %d)",
				name, w.MaxVectorClocks, b.MaxVectorClocks)
		}
	}
}

// Dynamic granularity's clock reduction per benchmark (Table 3's shape).
func TestDynamicClockReduction(t *testing.T) {
	atLeast := map[string]float64{
		"facesim":       5,  // partitioned sweeps coalesce hard
		"streamcluster": 10, // likewise
		"dedup":         10, // single-epoch buffers
		"pbzip2":        10,
		"ffmpeg":        10, // pooled frame buffers
		"canneal":       1,  // random access: no benefit (the paper's point)
	}
	for name, factor := range atLeast {
		b := report(t, name, race.Byte).Detector
		d := report(t, name, race.Dynamic).Detector
		got := float64(b.MaxVectorClocks) / float64(d.MaxVectorClocks)
		if got < factor {
			t.Errorf("%s: clock reduction %.1f×, want ≥ %.0f×", name, got, factor)
		}
	}
	// canneal specifically must NOT benefit much.
	b := report(t, "canneal", race.Byte).Detector
	d := report(t, "canneal", race.Dynamic).Detector
	if float64(b.MaxVectorClocks)/float64(d.MaxVectorClocks) > 1.5 {
		t.Error("canneal should see almost no sharing")
	}
}

// pbzip2 isolates the allocation effect: same-epoch rates identical at
// byte and dynamic granularity while the sharing count is large.
func TestPbzip2AllocationIsolation(t *testing.T) {
	b := report(t, "pbzip2", race.Byte).Detector
	d := report(t, "pbzip2", race.Dynamic).Detector
	if b.SameEpochPct() != d.SameEpochPct() {
		t.Errorf("same-epoch rates differ: %.1f vs %.1f", b.SameEpochPct(), d.SameEpochPct())
	}
	if d.AvgSharing < 20 || d.AvgSharing > 33 {
		t.Errorf("avg sharing %.1f, want near the 32-location block ceiling", d.AvgSharing)
	}
	if d.NodeAllocs*5 > b.NodeAllocs {
		t.Errorf("clock allocations: dynamic %d vs byte %d (want ≥5× fewer)",
			d.NodeAllocs, b.NodeAllocs)
	}
}

// facesim and streamcluster: dynamic granularity lifts the same-epoch rate
// substantially (Table 4's mechanism).
func TestSameEpochLift(t *testing.T) {
	for _, name := range []string{"facesim", "fluidanimate", "streamcluster"} {
		b := report(t, name, race.Byte).Detector
		d := report(t, name, race.Dynamic).Detector
		if d.SameEpochPct() < b.SameEpochPct()+20 {
			t.Errorf("%s: same-epoch %.0f%% → %.0f%%, want a ≥20-point lift",
				name, b.SameEpochPct(), d.SameEpochPct())
		}
	}
}

// dedup out-allocates every other benchmark by a wide margin (the paper's
// 14 GB vs a 1.7 GB suite average), and its memory-overhead factor is the
// smallest of the suite.
func TestDedupChurnAndOverhead(t *testing.T) {
	rep := report(t, "dedup", race.Dynamic)
	for _, spec := range workloads.All() {
		if spec.Name == "dedup" {
			continue
		}
		other := report(t, spec.Name, race.Dynamic)
		if rep.Run.AllocBytes < 3*other.Run.AllocBytes {
			t.Errorf("dedup churn %d not ≥3× %s's %d",
				rep.Run.AllocBytes, spec.Name, other.Run.AllocBytes)
		}
	}
	dedupFactor := 1 + float64(rep.Detector.TotalPeakBytes)/float64(rep.Run.PeakHeapBytes)
	for _, other := range []string{"facesim", "ferret", "pbzip2"} {
		o := report(t, other, race.Dynamic)
		f := 1 + float64(o.Detector.TotalPeakBytes)/float64(o.Run.PeakHeapBytes)
		if f < dedupFactor {
			t.Errorf("%s overhead factor %.2f below dedup's %.2f", other, f, dedupFactor)
		}
	}
}

// raytrace's pthread-module races are suppressed by the FastTrack detector
// but visible to a DRD-style tool (the paper's raytrace note).
func TestRaytracePthreadSuppression(t *testing.T) {
	ft := report(t, "raytrace", race.Dynamic)
	if ft.Suppressed == 0 {
		t.Error("raytrace should have suppressed pthread races")
	}
	spec, _ := workloads.ByName("raytrace")
	drd := race.Run(spec.Program(), race.Options{Tool: race.DRD, Seed: 42})
	if len(drd.Races) <= len(ft.Races) {
		t.Errorf("DRD should report the extra pthread race: %d vs %d",
			len(drd.Races), len(ft.Races))
	}
}

// hmmsearch's single race is found by every tool (the paper's agreement).
func TestHmmsearchAllToolsAgree(t *testing.T) {
	spec, _ := workloads.ByName("hmmsearch")
	for _, tool := range []race.Tool{race.FastTrack, race.DJITPlus, race.DRD, race.InspectorXE, race.Eraser} {
		rep := race.Run(spec.Program(), race.Options{Tool: tool, Granularity: race.Dynamic, Seed: 42})
		// Tools count differently (per byte, per word, per site pair);
		// normalize to distinct word locations.
		locs := map[uint64]bool{}
		for _, r := range rep.Races {
			locs[r.Addr&^3] = true
		}
		if len(locs) != 1 {
			t.Errorf("%v flagged %d locations on hmmsearch, want 1", tool, len(locs))
		}
	}
}
