package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/race"
	"repro/workloads"
)

// seedsPerProgram is the size of each program's execution-seed pool. The
// closed loop cycles through the pool, so every timed execution has a
// reference verdict computed during set-up.
const seedsPerProgram = 2

// execTimeout bounds one execution; an execution that hits it fails.
const execTimeout = 60 * time.Second

// workload is one named benchmark configuration: a detector topology and
// the programs it runs.
type workload struct {
	name     string
	programs []string
	// opts is the timed configuration. Remote is filled in at set-up for
	// workloads that stream to the in-process server.
	opts   race.Options
	remote bool
	// subset marks sampled lanes, whose race sets may miss reference races
	// but never add one. Exhaustive lanes must match the reference exactly.
	subset bool
	// tailP is the percentile ns_per_access_tail reports: the highest one
	// that leaves at least ten executions beyond it in a 35-second run on a
	// shared 2-core host, slow runs included. It is fixed per workload so
	// the metric keeps one definition when the sample count moves.
	tailP float64
}

// refOptions is the reference configuration for w: serial, in-process,
// exhaustive FastTrack with the same granularity and clock.
func (w workload) refOptions() race.Options {
	return race.Options{Tool: race.FastTrack, Granularity: w.opts.Granularity, Clock: w.opts.Clock}
}

// allWorkloads separate the layers an optimisation can move. BENCHMARK.json
// records each one's reason and its measured shares of the free path,
// elision, sampling and sync.
var allWorkloads = []workload{
	// The paper's own configuration: the detector core (shadow lookup,
	// dynamic-granularity sharing, the heap-free path) does almost all the
	// work; wire, elide, sampling and pipeline do none.
	{
		name:     "serial-churn",
		programs: []string{"facesim", "dedup", "fluidanimate", "canneal"},
		opts:     race.Options{Tool: race.FastTrack, Granularity: race.Dynamic, Clock: race.ClockGeneral},
		tailP:    90, // 120-160 executions
	},
	// Every layer after the engine runs: elide, client encode, wire,
	// transport, server decode, columnar pipeline dispatch and report merge.
	// The only workload on the columnar apply path.
	{
		name:     "remote-stream",
		programs: []string{"ferret", "ffmpeg", "pbzip2", "hmmsearch"},
		opts:     race.Options{Tool: race.FastTrack, Granularity: race.Dynamic, Clock: race.ClockGeneral, Elide: true, Workers: 1},
		remote:   true,
		tailP:    90, // 190-330 executions
	},
	// The production always-on lane: the engine and the sampler's skip path
	// dominate; sync is never sampled, so compact clocks carry hot sync.
	// Serial, so the sampler's rate stays static and verdicts deterministic.
	{
		name:     "always-on",
		programs: []string{"x264", "fanin", "pipedag"},
		opts:     race.Options{Tool: race.FastTrack, Granularity: race.Dynamic, Clock: race.ClockCompact, Budget: 0.05, Elide: true},
		subset:   true,
		tailP:    95, // 480-750 executions
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// splitmix64 is the seed-derivation mixer: a bijective scramble of a
// 64-bit counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// execSeed derives the scheduler seed of a program's k-th pool entry from
// the workload seed. Programs never see the workload seed itself, only the
// schedule (and the per-thread random streams) this seed generates.
func execSeed(workloadSeed int64, program string, k int) int64 {
	h := fnv.New64a()
	h.Write([]byte(program))
	return int64(splitmix64(uint64(workloadSeed)^h.Sum64()+uint64(k)) >> 1)
}

// input is one (program, seed) pair with its reference verdict.
type input struct {
	program  string
	prog     race.Program
	seed     int64
	ref      raceSet
	accesses uint64
}

// bench is a set-up workload: its inputs with reference verdicts and, for
// remote workloads, the running in-process server.
type bench struct {
	w      workload
	scale  int
	inputs []input // program-major: inputs[p*seedsPerProgram+k]
	srv    *server.Server
	serveC chan error
	opts   race.Options
}

// setup builds the programs, starts the server and computes every
// input's reference verdict.
func setup(w workload, workloadSeed int64, scale int) (*bench, error) {
	b := &bench{w: w, scale: scale, opts: w.opts}
	b.opts.Timeout = execTimeout
	if w.remote {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		b.srv = server.New(server.Options{Logger: telemetry.NewDiscardLogger()})
		b.serveC = make(chan error, 1)
		go func() { b.serveC <- b.srv.Serve(ln) }()
		b.opts.Remote = ln.Addr().String()
	}
	ref := w.refOptions()
	ref.Timeout = execTimeout
	for _, name := range w.programs {
		spec, err := workloads.ByName(name)
		if err != nil {
			b.close()
			return nil, err
		}
		prog := spec.Build(scale)
		for k := 0; k < seedsPerProgram; k++ {
			in := input{program: name, prog: prog, seed: execSeed(workloadSeed, name, k)}
			ref.Seed = in.seed
			rep, err := race.RunE(prog, ref)
			if err == nil && (rep.TimedOut || rep.OOM) {
				err = fmt.Errorf("reference did not complete (timed out %v, oom %v)", rep.TimedOut, rep.OOM)
			}
			if err != nil {
				b.close()
				return nil, fmt.Errorf("reference %s seed %d: %w", name, in.seed, err)
			}
			in.ref = newRaceSet(rep.Races)
			in.accesses = rep.Run.Accesses
			b.inputs = append(b.inputs, in)
		}
	}
	return b, nil
}

// close shuts the server down and reports sessions it still held.
func (b *bench) close() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.serveC; serr != nil && serr != server.ErrServerClosed && err == nil {
		err = serr
	}
	if n := b.srv.SessionCount(); n != 0 && err == nil {
		err = fmt.Errorf("server shut down with %d sessions left", n)
	}
	b.srv = nil
	return err
}

// cycle returns the inputs of closed-loop cycle c: every program once, with
// the pool seeds taken in turn.
func (b *bench) cycle(c int) []*input {
	k := c % seedsPerProgram
	out := make([]*input, 0, len(b.w.programs))
	for p := range b.w.programs {
		out = append(out, &b.inputs[p*seedsPerProgram+k])
	}
	return out
}

// raceSet is a canonical, comparable race set.
type raceSet map[race.Race]bool

func newRaceSet(rs []race.Race) raceSet {
	s := make(raceSet, len(rs))
	for _, r := range rs {
		s[r] = true
	}
	return s
}

func (s raceSet) sorted() []race.Race {
	out := make([]race.Race, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// checkVerdict compares an execution's races with the reference. An
// exhaustive lane must report exactly the reference set (and no race
// twice); a sampled lane (subset) may miss reference races but never add
// one. It returns the number of reference races found and a non-nil error
// describing the first mismatch.
func checkVerdict(got []race.Race, ref raceSet, subset bool) (found int, err error) {
	seen := make(raceSet, len(got))
	for _, r := range got {
		if seen[r] {
			return found, fmt.Errorf("race reported twice: %v", r)
		}
		seen[r] = true
		if !ref[r] {
			return found, fmt.Errorf("race not in the reference: %v", r)
		}
		found++
	}
	if !subset && found != len(ref) {
		return found, fmt.Errorf("found %d of %d reference races", found, len(ref))
	}
	return found, nil
}
