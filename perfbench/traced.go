package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/race"
)

// The probe chain's span and execution ids start here, apart from the
// traced chain's, so the two share one span file.
const (
	probeSpanBase = 1 << 40
	probeExecBase = 1 << 20
)

// ledger accumulates everything the traced run measures.
type ledger struct {
	tracer *telemetry.Tracer // created first: span timestamps are relative to it
	cal    calibration
	ct     *chainTrace // the traced executions' chain
	pct    *chainTrace // the remote probe's detector replay (remote workloads)

	execs  []execution // traced executions
	probes []execution // remote probe executions
	simNS  int64       // time inside sim.Run, traced executions

	elided, forwarded, skipped uint64
	det                        []detector.Stats

	// Remote client, server and pipeline.
	clientReg  *telemetry.Registry
	client     client.Stats
	closeMS    []float64
	srv0, srv1 server.MetricsSnapshot
	shed0      uint64
	shed1      uint64
	dispatch   telemetry.HistogramSnapshot
	apply      telemetry.HistogramSnapshot
	parks      uint64
	queuePeak  int64
	wireEncNS  int64
	wireDecNS  int64
	wireEvents uint64
	wireBytes  uint64

	// Uninstrumented baseline of every input, CPU time.
	baseNS  int64
	baseAcc uint64
}

func newLedger(cal calibration) *ledger {
	tl := &ledger{tracer: telemetry.NewTracer(), clientReg: telemetry.New(), cal: cal}
	tl.ct = newChainTrace(cal)
	tl.pct = newChainTrace(cal)
	tl.pct.nextID = probeSpanBase
	tl.pct.exec = probeExecBase
	return tl
}

// chain assembles the decorated chain in front of leaf in the order
// race.RunE uses: elider outermost, then the sampler, then leaf.
func (b *bench) chain(ct *chainTrace, leaf event.Sink, leafLayer int) (*timed, *event.Elider, *sampling.Detector) {
	top := newTimed(leaf, ct, leafLayer)
	var smp *sampling.Detector
	if b.opts.Budget > 0 {
		smp = sampling.New(top, sampling.Options{RatePermille: uint32(b.opts.Budget*1000 + 0.5)})
		top = newTimed(smp, ct, layerSampling)
	}
	var el *event.Elider
	if b.opts.Elide {
		el = event.NewElider(top, event.EliderOptions{})
		top = newTimed(el, ct, layerElide)
	}
	top.outer = true
	return top, el, smp
}

// runSim runs the engine with program panics turned into errors.
func runSim(p sim.Program, sink event.Sink, seed int64) (st sim.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return sim.Run(p, sink, sim.Options{Seed: seed, Deadline: time.Now().Add(execTimeout)}), nil
}

// raceList converts detector races to the unified form race.RunE reports.
func raceList(ds []detector.Race) []race.Race {
	out := make([]race.Race, 0, len(ds))
	for _, x := range ds {
		out = append(out, race.Race{
			Kind: x.Kind.String(), Addr: x.Addr, Size: x.Size,
			Tid: int32(x.Tid), PC: uint32(x.PC),
			OtherTid: int32(x.PrevTid), OtherPC: uint32(x.PrevPC),
		})
	}
	return out
}

// tracedExec runs one input through the decorated chain and checks its
// verdict like an untraced execution. Like race.RunE, it times the
// program run plus, on the remote path, the close that brings the report.
func (b *bench) tracedExec(in *input, tl *ledger) execution {
	ct := tl.ct
	ct.exec++
	e := execution{Program: in.program, Seed: in.seed}
	var (
		leaf      event.Sink
		leafLayer int
		finish    func() ([]race.Race, detector.Stats, error)
	)
	if b.w.remote {
		cl, fin, err := b.dial(tl)
		if err != nil {
			judge(&e, in, nil, b.w.subset, false, false, err)
			return e
		}
		leaf, leafLayer, finish = cl, layerClient, fin
	} else {
		d := detector.New(detector.Config{Granularity: b.opts.Granularity, Clock: b.opts.Clock})
		leaf, leafLayer = d, layerDetector
		finish = func() ([]race.Race, detector.Stats, error) { return raceList(d.Races()), d.Stats(), nil }
	}
	top, el, smp := b.chain(ct, leaf, leafLayer)

	rootID, simID := ct.newID(), ct.newID()
	cpu0 := cpuTime()
	start := ct.now()
	ct.parent = simID
	st, err := runSim(in.prog, top, in.seed)
	simEnd := ct.now()
	ct.parent = rootID
	races, dstats, ferr := finish()
	end := ct.now()
	e.CPUNS = cpuTime() - cpu0
	ct.parent = 0
	ct.record(span{id: simID, parent: rootID, exec: ct.exec, name: "sim.run", start: start, dur: simEnd - start})
	ct.record(span{id: rootID, exec: ct.exec, name: "execution", start: start, dur: end - start})
	if err == nil {
		err = ferr
	}

	e.ElapsedNS = end - start
	e.Accesses = st.Accesses
	e.PeakBytes = dstats.TotalPeakBytes
	judge(&e, in, races, b.w.subset, st.TimedOut, false, err)
	if err == nil {
		tl.simNS += simEnd - start
		if !b.w.remote {
			// A remote report carries only a summary of the detector's
			// statistics; the probe's replay supplies the full set.
			tl.det = append(tl.det, dstats)
		}
		if el != nil {
			tl.elided += el.Elided()
		}
		if smp != nil {
			f, s := smp.Counts()
			tl.forwarded += f
			tl.skipped += s
		}
	}
	return e
}

// sessionSeries are a remote session's pipeline instruments, looked up in
// the server registry while the session is open (the server prunes them
// when it retires the session; the instruments themselves stay readable).
type sessionSeries struct {
	dispatch, apply *telemetry.Histogram
	prodParks       *telemetry.Counter
	consParks       *telemetry.Counter
}

func lookupSession(reg *telemetry.Registry, id uint64) (sessionSeries, error) {
	label := fmt.Sprint(id)
	found := false
	reg.Each(func(m telemetry.Metric) {
		if m.Name == "pipeline_dispatch_wait_ns" && m.Labels["session"] == label {
			found = true
		}
	})
	if !found {
		return sessionSeries{}, fmt.Errorf("no pipeline series for session %d", id)
	}
	view := reg.With(telemetry.Labels{"session": label})
	return sessionSeries{
		dispatch:  view.Histogram("pipeline_dispatch_wait_ns", ""),
		apply:     view.Histogram("pipeline_batch_apply_ns", "", telemetry.Labels{"shard": "0"}),
		prodParks: view.Counter("pipeline_ring_parks_total", "", telemetry.Labels{"side": "producer"}),
		consParks: view.Counter("pipeline_ring_parks_total", "", telemetry.Labels{"side": "consumer"}),
	}, nil
}

// mergeHist adds src's buckets into dst.
func mergeHist(dst *telemetry.HistogramSnapshot, src telemetry.HistogramSnapshot) {
	dst.Count += src.Count
	dst.Sum += src.Sum
	for i := range dst.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
}

// pollQueue samples the server's queue depth until the returned stop
// function is called; stop waits for the poller to exit.
func pollQueue(srv *server.Server, peak *int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if q := srv.Metrics().QueueDepth; q > *peak {
					*peak = q
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// dial opens a session to the in-process server the way race.RunE's
// remote path does, and returns the client with the function that closes
// it, collects the transport and pipeline figures and returns the report.
func (b *bench) dial(tl *ledger) (*client.Client, func() ([]race.Race, detector.Stats, error), error) {
	cl, err := client.Dial(client.Options{
		Addr:      b.opts.Remote,
		Telemetry: tl.clientReg,
		Hello: wire.Hello{
			Granularity: uint8(b.opts.Granularity),
			Workers:     b.opts.Workers,
			Clock:       uint8(b.opts.Clock),
		},
	})
	if err != nil {
		return nil, nil, err
	}
	series, serr := lookupSession(b.srv.Registry(), cl.SessionID())
	stop := pollQueue(b.srv, &tl.queuePeak)
	finish := func() ([]race.Race, detector.Stats, error) {
		ct := tl.ct
		closeID := ct.newID()
		start := ct.now()
		rep, err := cl.Close()
		end := ct.now()
		stop()
		ct.record(span{id: closeID, parent: ct.parent, exec: ct.exec, name: "client.close", start: start, dur: end - start})
		tl.closeMS = append(tl.closeMS, float64(end-start)/1e6)
		cs := cl.Stats()
		tl.client.Batches += cs.Batches
		tl.client.PayloadBytes += cs.PayloadBytes
		tl.client.Resends += cs.Resends
		if err == nil {
			err = serr
		}
		if err != nil {
			return nil, detector.Stats{}, err
		}
		mergeHist(&tl.dispatch, series.dispatch.Snapshot())
		mergeHist(&tl.apply, series.apply.Snapshot())
		tl.parks += series.prodParks.Load() + series.consParks.Load()
		return raceList(rep.DetectorRaces()), rep.DetectorStats(), nil
	}
	return cl, finish, nil
}

// probe records the stream a remote session receives (the elided event
// stream) batch by batch: each batch goes through the wire codec and is
// replayed into a timed local detector configured like the session's. The
// replay gives the detector-side per-layer numbers of the remote workload
// and is verdict-checked like any execution.
func (b *bench) probe(in *input, tl *ledger) execution {
	pct := tl.pct
	pct.exec++
	d := detector.New(detector.Config{Granularity: b.opts.Granularity, Clock: b.opts.Clock})
	replay := newTimed(d, pct, layerDetector)
	replay.outer = true
	var (
		buf     []byte
		decoded event.Cols
		cols    event.Cols
		wireErr error
	)
	enc := &event.Encoder{Flush: func(bt *event.Batch) {
		cols.Reset()
		for _, r := range bt.Recs {
			cols.Append(r)
		}
		event.PutBatch(bt)
		t0 := time.Now()
		buf = wire.AppendColumnarCols(buf[:0], &cols)
		t1 := time.Now()
		decoded.Reset()
		derr := wire.DecodeColumnarColsInto(buf, &decoded)
		t2 := time.Now()
		tl.wireEncNS += t1.Sub(t0).Nanoseconds()
		tl.wireDecNS += t2.Sub(t1).Nanoseconds()
		tl.wireEvents += uint64(cols.Len())
		tl.wireBytes += uint64(len(buf))
		if derr == nil && decoded.Len() != cols.Len() {
			derr = fmt.Errorf("decoded %d of %d records", decoded.Len(), cols.Len())
		}
		if derr != nil && wireErr == nil {
			wireErr = fmt.Errorf("wire round trip: %w", derr)
		}
		decoded.Apply(replay)
	}}
	el := event.NewElider(enc, event.EliderOptions{})
	cpu0, start := cpuTime(), time.Now()
	st, err := runSim(in.prog, el, in.seed)
	enc.Close()
	e := execution{
		Program: in.program, Seed: in.seed, Accesses: st.Accesses,
		CPUNS: cpuTime() - cpu0, ElapsedNS: time.Since(start).Nanoseconds(),
	}
	if err == nil {
		err = wireErr
	}
	ds := d.Stats()
	e.PeakBytes = ds.TotalPeakBytes
	judge(&e, in, raceList(d.Races()), false, st.TimedOut, false, err)
	if !e.failed() {
		tl.det = append(tl.det, ds)
	}
	return e
}

// baseline times every input uninstrumented (race.Baseline), in CPU time
// like the executions.
func (b *bench) baseline(tl *ledger) {
	for i := range b.inputs {
		in := &b.inputs[i]
		cpu0 := cpuTime()
		st, _ := race.Baseline(in.prog, in.seed)
		tl.baseNS += cpuTime() - cpu0
		tl.baseAcc += st.Accesses
	}
}

// writeSpans writes the kept spans as Chrome trace_event JSON through the
// repository's tracer, with the trace overhead beside them.
func (tl *ledger) writeSpans(path string, overhead float64) error {
	tr := tl.tracer
	for _, ct := range []*chainTrace{tl.ct, tl.pct} {
		base := ct.base.UnixNano()
		for _, s := range ct.spans {
			tr.RecordSpan(telemetry.SpanRecord{
				Trace: uint64(s.exec), Span: s.id, Parent: s.parent,
				Name: s.name, Process: "perfbench",
				Start: base + s.start, Dur: s.dur,
				Args: map[string]any{"dur_ns": s.dur},
			})
		}
	}
	tr.Instant("trace.overhead_frac", map[string]any{
		"value":         overhead,
		"dropped_spans": tl.ct.dropped + tl.pct.dropped,
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
