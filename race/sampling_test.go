package race

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/workloads"
)

// TestSamplingEquivalenceFullBudget is the 100%-budget pin: with Budget 1
// the sampling lane must be byte-identical to no sampler at all — same
// race set and same detector access count — across every workload, every
// granularity and all three topologies (in-process serial, remote
// loopback, two-member cluster). The sampler short-circuits into pure
// pass-through at 1000‰, so any divergence here means the lane perturbs
// the stream it claims to merely observe.
func TestSamplingEquivalenceFullBudget(t *testing.T) {
	remote := startDetectd(t, server.Options{})
	cluster := []string{startDetectd(t, server.Options{}), startDetectd(t, server.Options{})}
	for _, spec := range workloads.All() {
		for _, g := range []Granularity{Byte, Word, Dynamic} {
			base := Run(spec.Program(), Options{Granularity: g, Seed: 42})
			want := sortRaces(base.Races)
			topologies := []struct {
				name string
				opts Options
			}{
				{"serial", Options{Granularity: g, Seed: 42, Budget: 1}},
				{"remote", Options{Granularity: g, Seed: 42, Budget: 1, Workers: 2, Remote: remote}},
				{"cluster", Options{Granularity: g, Seed: 42, Budget: 1, Workers: 2, Cluster: cluster}},
			}
			for _, topo := range topologies {
				rep, err := RunE(spec.Program(), topo.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", spec.Name, g, topo.name, err)
				}
				if got := sortRaces(rep.Races); !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s/%s: race set differs at 100%% budget\nwant (%d): %v\ngot (%d): %v",
						spec.Name, g, topo.name, len(want), want, len(got), got)
				}
				if base.Detector.Accesses != rep.Detector.Accesses {
					t.Errorf("%s/%s/%s: Detector.Accesses %d vs %d at 100%% budget",
						spec.Name, g, topo.name, base.Detector.Accesses, rep.Detector.Accesses)
				}
				if rep.Detector.SampledSkipped != 0 {
					t.Errorf("%s/%s/%s: pass-through skipped %d accesses",
						spec.Name, g, topo.name, rep.Detector.SampledSkipped)
				}
			}
		}
	}
}

// TestSamplingBudgetStats reconciles the three coverage surfaces of a
// budgeted run: the report's Stats, the sampling_* telemetry counters and
// the detector_sampled_fraction gauge must tell the same story, and on an
// iterating workload (canneal amortizes its cold start) the achieved
// fraction lands within the budget plus cold-burst slack.
func TestSamplingBudgetStats(t *testing.T) {
	spec, err := workloads.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	rep := Run(spec.Program(), Options{
		Granularity: Dynamic, Seed: 42, Budget: 0.05, Telemetry: reg,
	})
	st := rep.Detector
	if st.SampledForwarded == 0 || st.SampledSkipped == 0 {
		t.Fatalf("budgeted run did not sample: forwarded=%d skipped=%d",
			st.SampledForwarded, st.SampledSkipped)
	}
	if got := reg.CounterValue("sampling_forwarded_total"); got != st.SampledForwarded {
		t.Errorf("sampling_forwarded_total %d, Stats.SampledForwarded %d", got, st.SampledForwarded)
	}
	if got := reg.CounterValue("sampling_skipped_total"); got != st.SampledSkipped {
		t.Errorf("sampling_skipped_total %d, Stats.SampledSkipped %d", got, st.SampledSkipped)
	}
	if gauge := reg.GaugeValue("detector_sampled_fraction"); math.Abs(gauge-st.SampledFraction()) > 1e-9 {
		t.Errorf("detector_sampled_fraction gauge %.6f, Stats fraction %.6f",
			gauge, st.SampledFraction())
	}
	if f := st.SampledFraction(); f > 0.055 {
		t.Errorf("achieved fraction %.4f exceeds the 5%% budget + cold-burst slack", f)
	} else if f < 0.005 {
		t.Errorf("achieved fraction %.4f collapsed far below the 5%% budget", f)
	}
}

// TestSamplingNeverInventsRacesEndToEnd drives the budgeted lane through
// the remote topology (sampler → wire client → server pipeline) and
// checks every reported race is in the exhaustive set: sampling may only
// shrink the report, never add to it, because the synchronization
// skeleton is forwarded verbatim.
func TestSamplingNeverInventsRacesEndToEnd(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	for _, name := range []string{"x264", "pipedag"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := Run(spec.Program(), Options{Granularity: Dynamic, Seed: 42})
		full := map[Race]bool{}
		for _, r := range base.Races {
			full[r] = true
		}
		rep, err := RunE(spec.Program(), Options{
			Granularity: Dynamic, Seed: 42, Budget: 0.05, Workers: 2, Remote: addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Races {
			if !full[r] {
				t.Errorf("%s: budgeted remote run invented a race: %+v", name, r)
			}
		}
		if rep.Detector.SampledForwarded == 0 {
			t.Errorf("%s: remote budgeted run forwarded nothing", name)
		}
	}
}

// TestServerSheddingCounted runs against a loopback server with the shed
// watermark forced to trip and checks dropped records are visible on both
// sides: the session report's ShedRecords and the server's
// sampling_shed_total counter agree, and nothing disappears silently.
func TestServerSheddingCounted(t *testing.T) {
	reg := telemetry.New()
	// Any nonzero queue occupancy latches the shedder, and every site is
	// sheddable after a single access: maximal pressure behaviour.
	addr := startDetectd(t, server.Options{
		ShedHighWater: 1e-12, ShedHotSite: 1, Telemetry: reg,
	})
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunE(spec.Program(), Options{
		Granularity: Dynamic, Seed: 42, Workers: 1, Remote: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detector.ShedRecords == 0 {
		t.Skip("loopback pipeline drained faster than the wire; no pressure to shed")
	}
	if got := reg.CounterValue("sampling_shed_total"); got != rep.Detector.ShedRecords {
		t.Errorf("sampling_shed_total %d, report ShedRecords %d", got, rep.Detector.ShedRecords)
	}
}

// raceDigest is an order-independent FNV-1a digest of a race set.
func raceDigest(rs []Race) uint64 {
	h := fnv.New64a()
	for _, r := range sortRaces(rs) {
		fmt.Fprintf(h, "%s %x %d %d %d %d %d\n", r.Kind, r.Addr, r.Size, r.Tid, r.PC, r.OtherTid, r.OtherPC)
	}
	return h.Sum64()
}

// TestAlwaysOnSamplingDecisionsPinned pins the sampler's decisions on the
// always-on configuration (5% budget, elision, compact clocks, dynamic
// granularity) at the paper scale: the forwarded/skipped split and the
// race set of each program and seed. A change to the sampler's internals
// that claims to keep its decisions must leave every row unchanged.
func TestAlwaysOnSamplingDecisionsPinned(t *testing.T) {
	rows := []struct {
		program            string
		seed               int64
		forwarded, skipped uint64
		races              int
		digest             uint64
	}{
		{"x264", 1, 16564, 332352, 70, 0x58f0ab6e3475568c},
		{"x264", 2, 16555, 332361, 70, 0x58f0ab6e3475568c},
		{"fanin", 1, 27596, 536956, 1, 0xb5f39f754c91fe6c},
		{"fanin", 2, 27553, 536999, 1, 0xb5f39f754c91fe6c},
		{"pipedag", 1, 17937, 356563, 2, 0x85c7d8e6ead9090d},
		{"pipedag", 2, 17932, 356568, 2, 0x2563b246a3f8c619},
	}
	for _, row := range rows {
		spec, err := workloads.ByName(row.program)
		if err != nil {
			t.Fatal(err)
		}
		rep := Run(spec.Build(3), Options{
			Tool: FastTrack, Granularity: Dynamic, Clock: ClockCompact,
			Budget: 0.05, Elide: true, Seed: row.seed,
		})
		st := rep.Detector
		if st.SampledForwarded != row.forwarded || st.SampledSkipped != row.skipped {
			t.Errorf("%s seed %d: forwarded/skipped %d/%d, want %d/%d", row.program, row.seed,
				st.SampledForwarded, st.SampledSkipped, row.forwarded, row.skipped)
		}
		if d := raceDigest(rep.Races); len(rep.Races) != row.races || d != row.digest {
			t.Errorf("%s seed %d: %d races (digest %#x), want %d (%#x)", row.program, row.seed,
				len(rep.Races), d, row.races, row.digest)
		}
	}
}
