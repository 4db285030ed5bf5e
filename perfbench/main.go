// Command perfbench is the repository's benchmark: it drives the product
// entry point, race.RunE, over three named workloads in a closed loop,
// checks every execution's verdict against a reference, and reports
// end-to-end metrics (--trace 0) or, from a separate traced run, per-layer
// metrics (--trace 1). See README.md in this directory.
//
//	go run . --workload serial-churn --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object the benchmark
// contract asks for; the full record (environment, seeds, executions) is
// written to .bench_build/perfbench/ under the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// paperScale is the program scale of measured runs; smoke runs use 1.
const paperScale = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// inputInfo records one (program, seed) input of a run.
type inputInfo struct {
	Program   string `json:"program"`
	Seed      int64  `json:"seed"`
	Accesses  uint64 `json:"accesses"`
	RefRaces  int    `json:"ref_races"`
	Reference string `json:"reference"`
}

// result is the full record of one run.
type result struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Trace         int            `json:"trace"`
	Scale         int            `json:"scale"`
	Seconds       float64        `json:"seconds"`
	Env           environment    `json:"env"`
	Inputs        []inputInfo    `json:"inputs"`
	SetupS        []float64      `json:"setup_s"`
	Summary       summary        `json:"summary"`
	Info          map[string]any `json:"info,omitempty"`
	NotApplicable []string       `json:"not_applicable,omitempty"`
	FirstFailure  string         `json:"first_failure,omitempty"`
	Warmup        []execution    `json:"warmup"`
	Executions    []execution    `json:"executions"`
	Traced        []execution    `json:"traced,omitempty"`
	Probes        []execution    `json:"probes,omitempty"`
	SpanFile      string         `json:"span_file,omitempty"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    int
	root     string // repository root, whose sources the result identifies
	out      string // directory for the full record and span files
}

// runWorkload sets up, measures and reports one workload.
func runWorkload(c config) (*result, error) {
	w, err := workloadByName(c.workload)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: c.seed, Trace: c.trace,
		Scale: c.scale, Seconds: c.seconds, Env: currentEnvironment(c.root),
	}
	reps := setupReps
	if c.trace != 0 {
		reps = 1 // set-up time is an end-to-end metric only
	}
	var b *bench
	for i := 0; i < reps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		if b, err = setup(w, c.seed, c.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	defer b.close() // on error paths; the success path closes and checks below
	for _, in := range b.inputs {
		res.Inputs = append(res.Inputs, inputInfo{
			Program: in.program, Seed: in.seed, Accesses: in.accesses,
			RefRaces: len(in.ref), Reference: fmt.Sprint(in.ref.sorted()),
		})
	}

	// One untimed execution through the product path fills caches and
	// opens the first session before anything is timed.
	res.Warmup = []execution{b.runProduct(&b.inputs[0])}
	window := time.Duration(c.seconds * float64(time.Second))
	if c.trace != 0 {
		window /= 2 // half untraced, half traced
	}
	rt0 := readRuntime()
	res.Executions = b.loop(window, b.runProduct)
	rt1 := readRuntime()

	if c.trace == 0 {
		res.Summary.Metrics, res.Info = endToEnd(res.Executions, median(res.SetupS), w.tailP)
	} else {
		tl := newLedger(calibrate())
		if b.srv != nil {
			tl.srv0 = b.srv.Metrics()
			tl.shed0 = b.srv.Registry().CounterValue("sampling_shed_total")
		}
		tl.execs = b.loop(window, func(in *input) execution { return b.tracedExec(in, tl) })
		if b.srv != nil {
			tl.srv1 = b.srv.Metrics()
			tl.shed1 = b.srv.Registry().CounterValue("sampling_shed_total")
			for p := range w.programs {
				tl.probes = append(tl.probes, b.probe(&b.inputs[p*seedsPerProgram], tl))
			}
		}
		b.baseline(tl)
		res.Traced, res.Probes = tl.execs, tl.probes
		res.Summary.Metrics = tl.perLayer(res.Executions, rt0, rt1)
		res.NotApplicable = tl.notApplicable()
		res.Info = map[string]any{
			"traced_executions": len(tl.execs),
			"access_sample":     accessSampleEvery,
			"span_overhead_ns":  map[string]float64{"self": tl.cal.self, "nested": tl.cal.nested},
			"spans_kept":        len(tl.ct.spans) + len(tl.pct.spans),
			"spans_dropped":     tl.ct.dropped + tl.pct.dropped,
		}
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return nil, err
		}
		res.SpanFile = filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.json", w.name, c.seed))
		if err := tl.writeSpans(res.SpanFile, tl.overhead(res.Executions)); err != nil {
			return nil, err
		}
	}
	if err := b.close(); err != nil {
		return nil, err
	}

	var all []execution
	for _, part := range [][]execution{res.Warmup, res.Executions, res.Traced, res.Probes} {
		all = append(all, part...)
	}
	res.Summary.Attempted, res.Summary.Failed, res.FirstFailure = tally(all)
	res.Summary.Correct = res.Summary.Failed == 0
	return res, nil
}

// writeResult stores the full record next to the span files.
func writeResult(c config, res *result) (string, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(c.out, fmt.Sprintf("result-%s-%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// findRoot returns the repository root: the directory holding
// perfbench/go.mod, searched from the working directory upward one level.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "perfbench", "go.mod")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root (perfbench/go.mod not found)")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{scale: paperScale}
	fs.StringVar(&c.workload, "workload", "", "workload to run: serial-churn, remote-stream or always-on")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; every execution seed derives from it")
	fs.Float64Var(&c.seconds, "seconds", 35, "measurement window in seconds")
	fs.IntVar(&c.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "run every workload once at scale 1, untraced and traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	c.root = root
	c.out = filepath.Join(root, ".bench_build", "perfbench")
	if *smoke {
		results, err := smokeRun(c)
		for _, r := range results {
			line, _ := json.Marshal(r.Summary)
			fmt.Fprintf(stdout, "%s trace=%d %s\n", r.Workload, r.Trace, line)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if c.trace != 0 && c.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := runWorkload(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	path, err := writeResult(c, res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stderr, "perfbench: full record in", path)
	if res.FirstFailure != "" {
		fmt.Fprintln(stderr, "perfbench: first failure:", res.FirstFailure)
	}
	line, err := json.Marshal(res.Summary)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// smokeRun runs every workload once (one closed-loop cycle) at scale 1,
// untraced and traced, and returns an error if any execution failed.
func smokeRun(c config) ([]*result, error) {
	var out []*result
	for _, w := range allWorkloads {
		for trace := 0; trace <= 1; trace++ {
			cc := c
			cc.workload, cc.trace, cc.seconds, cc.scale = w.name, trace, 0, 1
			res, err := runWorkload(cc)
			if err != nil {
				return out, fmt.Errorf("%s trace %d: %w", w.name, trace, err)
			}
			out = append(out, res)
			if !res.Summary.Correct {
				return out, fmt.Errorf("%s trace %d: %d of %d executions failed: %s",
					w.name, trace, res.Summary.Failed, res.Summary.Attempted, res.FirstFailure)
			}
		}
	}
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
