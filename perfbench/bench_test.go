package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/race"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func testConfig(t *testing.T) config {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, root: root, out: t.TempDir()}
}

// TestSmoke runs every workload once at scale 1, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit,
// that every execution passed the verdict check in all three topologies,
// and that the in-process server shut down with no sessions left
// (runWorkload fails otherwise).
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].name)
		}
	}
	results, err := smokeRun(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(allWorkloads) {
		t.Fatalf("%d results, want %d", len(results), 2*len(allWorkloads))
	}
	for _, r := range results {
		s := r.Summary
		if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d failed: %s", r.Workload, r.Trace, s.Correct, s.Failed, s.Attempted, r.FirstFailure)
		}
		want := bf.EndToEnd
		if r.Trace == 1 {
			want = bf.PerLayer
		}
		if len(s.Metrics) != len(want) {
			t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", r.Workload, r.Trace, len(s.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := s.Metrics[m.Name]
			if !ok {
				t.Errorf("%s trace %d: metric %s missing", r.Workload, r.Trace, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s trace %d: %s unit %q, BENCHMARK.json %q", r.Workload, r.Trace, m.Name, got.Unit, m.Unit)
			}
		}
		if r.Trace == 0 {
			continue
		}
		if _, err := os.Stat(r.SpanFile); err != nil {
			t.Errorf("%s: span file: %v", r.Workload, err)
		}
		// Only the remote workload runs the transport layers; the others
		// report them as not applicable.
		remote := r.Workload == "remote-stream"
		batches := s.Metrics["client.batches"].Value
		clientNA := false
		for _, na := range r.NotApplicable {
			clientNA = clientNA || strings.HasPrefix(na, "client.")
		}
		if remote != (batches > 0) || remote == clientNA {
			t.Errorf("%s: client.batches %v, client marked not applicable %v", r.Workload, batches, clientNA)
		}
	}
}

// TestVerdictCheckCountsCorruptedRaceSet feeds the verdict check corrupted
// race sets and asserts each one counts as a failed execution.
func TestVerdictCheckCountsCorruptedRaceSet(t *testing.T) {
	w, err := workloadByName("always-on")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &b.inputs[0] // x264: dozens of reference races
	ref := in.ref.sorted()
	if len(ref) < 2 {
		t.Fatalf("reference has %d races; the test needs two", len(ref))
	}
	invented := ref[0]
	invented.Addr += 1 << 20
	changed := append([]race.Race(nil), ref...)
	changed[0].OtherTid++

	cases := []struct {
		name   string
		races  []race.Race
		subset bool
		fail   bool
	}{
		{"exact set passes", ref, false, false},
		{"missing race", ref[1:], false, true},
		{"invented race", append(append([]race.Race(nil), ref...), invented), false, true},
		{"changed race", changed, false, true},
		{"duplicated race", append(append([]race.Race(nil), ref...), ref[0]), false, true},
		{"empty set", nil, false, true},
		{"subset lane: missing race passes", ref[1:], true, false},
		{"subset lane: invented race", append(ref[1:], invented), true, true},
		{"subset lane: changed race", changed, true, true},
	}
	var execs []execution
	wantFailed := 0
	for _, tc := range cases {
		e := execution{Program: in.program, Seed: in.seed, Accesses: in.accesses}
		judge(&e, in, tc.races, tc.subset, false, false, nil)
		if e.failed() != tc.fail {
			t.Errorf("%s: failed %v (%s), want %v", tc.name, e.failed(), e.Err, tc.fail)
		}
		if tc.fail {
			wantFailed++
		}
		execs = append(execs, e)
	}
	// An execution that ran a different input fails too.
	e := execution{Program: in.program, Seed: in.seed, Accesses: in.accesses + 1}
	judge(&e, in, ref, false, false, false, nil)
	execs = append(execs, e)
	wantFailed++

	attempted, failed, _ := tally(execs)
	if attempted != len(execs) || failed != wantFailed {
		t.Errorf("tally: %d attempted, %d failed; want %d, %d", attempted, failed, len(execs), wantFailed)
	}
}

func TestWeightedMedian(t *testing.T) {
	// Two clusters with equal counts: the weight decides the cluster.
	xs := []float64{100, 101, 300, 301}
	if got := weightedMedian(xs, []float64{3, 3, 1, 1}); got != 101 && got != 100 {
		t.Errorf("heavy low cluster: got %v", got)
	}
	if got := weightedMedian(xs, []float64{1, 1, 3, 3}); got != 300 && got != 301 {
		t.Errorf("heavy high cluster: got %v", got)
	}
}
