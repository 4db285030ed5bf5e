// Distributed spans: trace-scoped records that link one logical unit of
// work (an event batch) across processes — client encode/ack, server
// dispatch, pipeline shard apply, cluster merge. Unlike the phase spans of
// tracer.go (which are anonymous intervals on one process's timeline),
// a SpanRecord carries explicit trace/span/parent IDs, so span lists from
// several processes can be joined into one cross-process tree by
// `racectl spans`. Records are held by the same Tracer and mirrored into
// its Chrome trace_event stream, so a single -trace-out file shows both.
//
// IDs are 64-bit and minted with a splitmix64 sequence seeded from the
// process start time: unique within a fleet for any realistic run length,
// with zero reserved as "no ID" (absent-means-untraced, the same rule the
// wire handshake's optional grants use).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// SpanRecord is one node of a cross-process span tree.
type SpanRecord struct {
	// Trace groups every span of one traced unit of work (one sampled
	// event batch, end to end). Zero means untraced.
	Trace uint64 `json:"trace"`
	// Span identifies this record within the trace.
	Span uint64 `json:"span"`
	// Parent is the span this one was caused by (0 for the root).
	Parent uint64 `json:"parent,omitempty"`
	// Name is the operation ("batch", "server.dispatch", "shard.apply", …).
	Name string `json:"name"`
	// Process names the recording process ("client", "racedetectd",
	// "cluster"), distinguishing rows when span files are joined.
	Process string `json:"process,omitempty"`
	// Start is the span's wall-clock start in Unix nanoseconds — absolute,
	// not tracer-relative, so spans from different processes order.
	Start int64 `json:"start_unix_ns"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Args carries span-scoped details (events, bytes, shard, session …).
	Args map[string]any `json:"args,omitempty"`
}

// SpanFile is the top-level JSON document WriteSpansJSON emits and
// `racectl spans` reads.
type SpanFile struct {
	Spans []SpanRecord `json:"spans"`
}

// traceState seeds the ID sequence from process start so concurrently
// started processes mint disjoint sequences with overwhelming probability.
var (
	traceSeed = uint64(time.Now().UnixNano())
	traceCtr  atomic.Uint64
)

// mix64 is the splitmix64 finalizer — the same mixer the cluster ring uses
// for hash slots.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID mints a fleet-unique non-zero 64-bit ID, usable as either a
// trace or a span ID.
func NewTraceID() uint64 {
	id := mix64(traceSeed + traceCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Sampled reports whether the unit keyed by key falls inside the sampling
// rate (0 = never, 1 = always). The decision is a deterministic hash of
// key, so re-sent frames and replayed streams sample identically.
func Sampled(key uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(mix64(key))/float64(math.MaxUint64) < rate
}

// RecordSpan appends one span record and mirrors it into the Chrome event
// stream (args carry the IDs in hex). Start defaults to now−Dur when zero.
// Nil-safe and safe for concurrent use.
func (t *Tracer) RecordSpan(rec SpanRecord) {
	if t == nil {
		return
	}
	if rec.Start == 0 {
		rec.Start = time.Now().UnixNano() - rec.Dur
	}
	args := map[string]any{
		"trace": fmt.Sprintf("%016x", rec.Trace),
		"span":  fmt.Sprintf("%016x", rec.Span),
	}
	if rec.Parent != 0 {
		args["parent"] = fmt.Sprintf("%016x", rec.Parent)
	}
	if rec.Process != "" {
		args["process"] = rec.Process
	}
	for k, v := range rec.Args {
		args[k] = v
	}
	t.mu.Lock()
	t.appendSpanLocked(rec)
	t.appendEventLocked(TraceEvent{
		Name: rec.Name, Ph: "X",
		Ts:  (rec.Start - t.start.UnixNano()) / 1e3,
		Dur: rec.Dur / 1e3,
		Pid: 1, Tid: 1,
		Args: args,
	})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded span records in recording order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// WriteSpansJSON writes the JSON span sink document ({"spans": [...]}).
// Nil-safe (writes an empty, still-valid document).
func (t *Tracer) WriteSpansJSON(w io.Writer) error {
	f := SpanFile{Spans: t.Spans()}
	if f.Spans == nil {
		f.Spans = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
