package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/race"
)

// execution is one closed-loop program run with its verdict.
//
// CPUNS, the process's CPU time over the execution (every thread: engine,
// detector, client, server, collector), is the time the metrics use.
// ElapsedNS, the wall time race.RunE reports, is recorded beside it. On a
// shared VM the hypervisor takes bursts of 1-25% of the vCPUs (steal time),
// which stretch wall time but not CPU time: over six always-on runs, wall
// accesses per second ranged 35% while CPU accesses per second ranged 5%.
type execution struct {
	Program   string `json:"program"`
	Seed      int64  `json:"seed"`
	CPUNS     int64  `json:"cpu_ns"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Accesses  uint64 `json:"accesses"`
	Races     int    `json:"races"`
	Found     int    `json:"found"`
	RefRaces  int    `json:"ref_races"`
	PeakBytes int64  `json:"detector_peak_bytes"`
	Err       string `json:"error,omitempty"`
}

func (e execution) failed() bool { return e.Err != "" }

// judge fills in e's verdict against in's reference and the completion
// flags; every failure mode of an execution ends here.
func judge(e *execution, in *input, races []race.Race, subset, timedOut, oom bool, err error) {
	e.RefRaces = len(in.ref)
	e.Races = len(races)
	switch {
	case err != nil:
		e.Err = err.Error()
	case timedOut:
		e.Err = "timed out"
	case oom:
		e.Err = "out of memory"
	case e.Accesses != in.accesses:
		e.Err = fmt.Sprintf("ran %d accesses, reference %d", e.Accesses, in.accesses)
	default:
		found, verr := checkVerdict(races, in.ref, subset)
		e.Found = found
		if verr != nil {
			e.Err = "verdict: " + verr.Error()
		}
	}
}

// runE is race.RunE with engine panics (program errors, runaway guards)
// turned into errors.
func runE(p race.Program, opts race.Options) (rep race.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return race.RunE(p, opts)
}

// runProduct runs one input through the product entry point, race.RunE.
func (b *bench) runProduct(in *input) execution {
	opts := b.opts
	opts.Seed = in.seed
	cpu0 := cpuTime()
	rep, err := runE(in.prog, opts)
	e := execution{
		Program:   in.program,
		Seed:      in.seed,
		CPUNS:     cpuTime() - cpu0,
		ElapsedNS: rep.Elapsed.Nanoseconds(),
		Accesses:  rep.Run.Accesses,
		PeakBytes: rep.Detector.TotalPeakBytes,
	}
	judge(&e, in, rep.Races, b.w.subset, rep.TimedOut, rep.OOM, err)
	return e
}

// loop runs closed-loop cycles of run until d has passed (always at least
// one whole cycle, and only whole cycles, so every program is represented
// equally). Each execution starts on a collected heap, so no execution
// pays for the garbage of the one before it.
func (b *bench) loop(d time.Duration, run func(*input) execution) []execution {
	var out []execution
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < d; c++ {
		for _, in := range b.cycle(c) {
			runtime.GC()
			out = append(out, run(in))
		}
	}
	return out
}

// tally counts attempted and failed executions.
func tally(execs []execution) (attempted, failed int, firstErr string) {
	for _, e := range execs {
		attempted++
		if e.failed() {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("%s seed %d: %s", e.Program, e.Seed, e.Err)
			}
		}
	}
	return attempted, failed, firstErr
}

// throughput returns the summed accesses over the summed CPU time of the
// successful executions, in accesses per second.
func throughput(execs []execution) float64 {
	var acc uint64
	var ns int64
	for _, e := range execs {
		if !e.failed() {
			acc += e.Accesses
			ns += e.CPUNS
		}
	}
	if ns == 0 {
		return 0
	}
	return float64(acc) / (float64(ns) / 1e9)
}

// endToEnd computes the end-to-end metrics of a closed-loop run.
func endToEnd(execs []execution, setupS, tailP float64) (metricSet, map[string]any) {
	var perAccess, weights []float64
	var found, ref int
	var peak int64
	for _, e := range execs {
		if e.failed() || e.Accesses == 0 {
			continue
		}
		perAccess = append(perAccess, float64(e.CPUNS)/float64(e.Accesses))
		weights = append(weights, float64(e.Accesses))
		found += e.Found
		ref += e.RefRaces
		if e.PeakBytes > peak {
			peak = e.PeakBytes
		}
	}
	recall := 1.0
	if ref > 0 {
		recall = float64(found) / float64(ref)
	}
	m := metricSet{}
	m.set("accesses_per_s", throughput(execs), "1/s")
	m.set("ns_per_access_p50", weightedMedian(perAccess, weights), "ns")
	m.set("ns_per_access_tail", percentile(perAccess, tailP), "ns")
	m.set("detector_peak_mb", float64(peak)/1e6, "MB")
	m.set("rss_peak_mb", procStatusKB("VmHWM")/1e3, "MB")
	m.set("recall", recall, "ratio")
	m.set("setup_s", setupS, "s")
	info := map[string]any{
		"tail_percentile": tailP,
		"tail_beyond":     len(perAccess) - rank(len(perAccess), tailP),
		"samples":         len(perAccess),
		"races_found":     found,
		"races_reference": ref,
	}
	return m, info
}

// runtimeSample reads the allocator and GC CPU counters the per-layer
// runtime metrics are deltas of.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// cpuTime returns the process's CPU time so far (user and system, all
// threads) in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
