package repro_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/race"
	"repro/workloads"
)

// scheduleGoldenFile pins, per workload × granularity × seed, the race set
// (as a digest), the access and event counts and the detector's peak
// accounted bytes. Every figure is a pure function of the schedule the
// engine produces and of the detector's shadow-state bookkeeping, so a
// change to the engine's thread handoff or to the free path that claims to
// be behaviour-preserving must leave every line unchanged.
const scheduleGoldenFile = "testdata/schedule_golden.txt"

// scheduleLine renders one cell of the schedule-identity matrix.
func scheduleLine(spec workloads.Spec, g race.Granularity, seed int64) string {
	rep := race.Run(spec.Program(), race.Options{Granularity: g, Seed: seed})
	h := sha256.New()
	for _, r := range rep.Races {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%s %s seed=%d races=%d digest=%x accesses=%d events=%d peak=%d",
		spec.Name, g, seed, len(rep.Races), h.Sum(nil)[:8],
		rep.Run.Accesses, rep.Run.Events, rep.Detector.TotalPeakBytes)
}

// TestScheduleIdentityGolden reruns the 14 × 3 × 3 matrix and compares each
// cell with the committed golden file. On a mismatch it prints the full
// fresh table, which is what the golden file should hold if the change is
// intended.
func TestScheduleIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is several seconds")
	}
	f, err := os.Open(scheduleGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, spec := range workloads.All() {
		for _, g := range []race.Granularity{race.Byte, race.Word, race.Dynamic} {
			for _, seed := range []int64{1, 7, 42} {
				got = append(got, scheduleLine(spec, g, seed))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("matrix has %d cells, golden file %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			t.Errorf("cell %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	if bad > 0 {
		t.Logf("fresh table:\n%s", strings.Join(got, "\n"))
	}
}
