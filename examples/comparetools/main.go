// Comparetools runs one benchmark workload under all five detectors —
// FastTrack (dynamic granularity), DJIT+, the DRD-style segment detector,
// the Inspector-style hybrid, and Eraser's LockSet — and prints a Table
// 6-style comparison, including Eraser's characteristic false alarms on
// fork/join- and barrier-ordered accesses.
//
//	go run ./examples/comparetools [benchmark]
package main

import (
	"fmt"
	"os"

	"repro/race"
	"repro/workloads"
)

func main() {
	name := "ferret"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog := spec.Program()
	_, baseTime := race.Baseline(prog, 42)

	fmt.Printf("benchmark %s: %d genuine races seeded; base run %v\n\n",
		spec.Name, spec.Races, baseTime.Round(1000))
	fmt.Printf("%-22s %8s %10s %10s\n", "tool", "races", "slowdown", "peak mem")

	tools := []struct {
		label string
		opts  race.Options
	}{
		{"fasttrack/dynamic", race.Options{Tool: race.FastTrack, Granularity: race.Dynamic}},
		{"fasttrack/byte", race.Options{Tool: race.FastTrack, Granularity: race.Byte}},
		{"djit+", race.Options{Tool: race.DJITPlus}},
		{"drd (segments)", race.Options{Tool: race.DRD}},
		{"inspector (hybrid)", race.Options{Tool: race.InspectorXE}},
		{"eraser (lockset)", race.Options{Tool: race.Eraser}},
	}
	for _, tl := range tools {
		tl.opts.Seed = 42
		rep := race.Run(prog, tl.opts)
		mem := "-"
		if rep.Detector.TotalPeakBytes > 0 {
			mem = fmt.Sprintf("%.2f MB", float64(rep.Detector.TotalPeakBytes)/(1<<20))
		}
		fmt.Printf("%-22s %8d %9.2fx %10s\n",
			tl.label, len(rep.Races),
			float64(rep.Elapsed)/float64(baseTime), mem)
	}
	fmt.Println("\nEraser reports lock-discipline violations, so fork/join- and")
	fmt.Println("barrier-ordered accesses count as warnings: its excess over the")
	fmt.Println("happens-before tools is exactly the false-alarm problem the")
	fmt.Println("paper's introduction describes.")
}
