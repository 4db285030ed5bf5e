package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/vc"
)

// The traced run times each layer from outside: a timing decorator sits in
// front of every layer of the chain sim → elider → sampler → detector (or
// client), in the order race.RunE assembles it. Each decorator records a
// span for every sync and heap call. Access calls are sampled: the
// outermost decorator picks a random one in accessSampleEvery and names the
// layer that times it, taking the layers in turn, so a timed access carries
// no clock reads of other decorators. A layer's self time is its inclusive
// time minus its child's, each estimated from its own sample.

// Layers that sit behind a decorator, outermost first.
const (
	layerElide = iota
	layerSampling
	layerClient
	layerDetector
	numLayers
)

var layerNames = [numLayers]string{"event.elide", "sampling", "client", "detector"}

// Call classes a layer's time is split by.
const (
	clsAccess = iota
	clsSync
	clsMalloc
	clsFree
	numClasses
)

// accessSampleEvery is the mean access-call sampling period of the
// decorators. The gap between timed accesses is drawn at random from
// [1, 2*accessSampleEvery-1]: a fixed period would alias with the
// scheduler's 64-event quantum and time only the first access after each
// thread switch.
const accessSampleEvery = 16

// maxSpans bounds the spans kept in memory for the span file; the layer
// totals keep counting past it.
const maxSpans = 20000

// layerTotals accumulates one layer's calls and inclusive time.
type layerTotals struct {
	calls         [numClasses]uint64
	ns            [numClasses]float64 // inclusive time of the timed calls, overhead removed
	sampledAccess uint64              // access calls that were timed
}

// inclusive returns the layer's estimated inclusive time of class c in ns:
// exact for sync and heap calls, scaled up from the timed sample for
// accesses.
func (t *layerTotals) inclusive(c int) float64 {
	if c != clsAccess {
		return t.ns[c]
	}
	if t.sampledAccess == 0 {
		return 0
	}
	return t.ns[c] * float64(t.calls[c]) / float64(t.sampledAccess)
}

func (t *layerTotals) totalInclusive() float64 {
	var s float64
	for c := 0; c < numClasses; c++ {
		s += t.inclusive(c)
	}
	return s
}

func (t *layerTotals) totalCalls() uint64 {
	var n uint64
	for _, c := range t.calls {
		n += c
	}
	return n
}

// span is one recorded decorator call, kept in memory until the run ends.
type span struct {
	id, parent uint64
	exec       int32
	name       string
	start, dur int64 // ns since chainTrace.base
}

// spanNames[layer][op] names a decorator span, e.g. "detector.free".
var spanNames = func() (n [numLayers][event.OpWGWait + 1]string) {
	for l := range n {
		for op := range n[l] {
			n[l][op] = layerNames[l] + "." + event.Op(op).String()
		}
	}
	return n
}()

// chainTrace is the state the decorators of one chain share. Like every
// Sink it is driven from one event thread at a time.
type chainTrace struct {
	base    time.Time
	cal     calibration
	rng     uint64 // xorshift state drawing the gaps between timed accesses
	gap     uint64 // accesses until the next timed one
	order   []int  // layers present, outermost first: the turn order of timed accesses
	turn    int    // index into order of the layer timing the next sampled access
	target  int    // layer timing the current access call, -1 for none
	parent  uint64 // span id of the innermost open span
	nextID  uint64
	opens   uint64 // decorator spans opened so far
	exec    int32
	spans   []span
	dropped uint64
	layers  [numLayers]layerTotals
	present [numLayers]bool
}

func newChainTrace(cal calibration) *chainTrace {
	return &chainTrace{base: time.Now(), cal: cal, rng: 0x9e3779b97f4a7c15, gap: 1, target: -1}
}

func (ct *chainTrace) now() int64 { return int64(time.Since(ct.base)) }

// openSpan is a span between open and close.
type openSpan struct {
	id, parent uint64
	opens      uint64 // ct.opens when the span opened
	start      int64
}

// newID returns a fresh span id.
func (ct *chainTrace) newID() uint64 {
	ct.nextID++
	return ct.nextID
}

// open starts a decorator span under the innermost open one.
func (ct *chainTrace) open() openSpan {
	ct.opens++
	o := openSpan{id: ct.newID(), parent: ct.parent, opens: ct.opens}
	ct.parent = o.id
	o.start = ct.now()
	return o
}

// close ends the span opened by open and books it to layer and class. The
// booked time is the span's duration less the calibrated timing overhead:
// its own clock reads and those of the decorator spans nested inside it.
func (ct *chainTrace) close(layer, cls int, op event.Op, o openSpan) {
	dur := ct.now() - o.start
	ct.parent = o.parent
	nested := float64(ct.opens - o.opens)
	lt := &ct.layers[layer]
	lt.ns[cls] += float64(dur) - ct.cal.self - nested*ct.cal.nested
	if cls == clsAccess {
		lt.sampledAccess++
	}
	ct.record(span{id: o.id, parent: o.parent, exec: ct.exec, name: spanNames[layer][op], start: o.start, dur: dur})
}

func (ct *chainTrace) record(s span) {
	if len(ct.spans) >= maxSpans {
		ct.dropped++
		return
	}
	ct.spans = append(ct.spans, s)
}

// timedSpans returns how many decorator spans the chain timed.
func (ct *chainTrace) timedSpans() float64 {
	var n uint64
	for l := range ct.layers {
		t := &ct.layers[l]
		n += t.sampledAccess + t.calls[clsSync] + t.calls[clsMalloc] + t.calls[clsFree]
	}
	return float64(n)
}

// calibration is the timing overhead of a decorator span: self is the part
// of it inside the span's own measured window, nested what one decorator
// span adds to the window of the span enclosing it.
type calibration struct {
	self, nested float64
}

// calibrate measures the decorator overhead on chains of one and two
// timed decorators in front of event.Nop, with sync calls (which every
// decorator times). Each figure is the median block mean of several blocks.
func calibrate() calibration {
	meanDur := func(depth int) float64 {
		const blocks, calls = 9, 10000
		means := make([]float64, 0, blocks)
		for rep := 0; rep < blocks; rep++ {
			ct := newChainTrace(calibration{})
			ct.spans = make([]span, maxSpans) // measure the steady state, spans no longer kept
			var sink event.Sink = event.Nop{}
			var top *timed
			for i := 0; i < depth; i++ {
				top = newTimed(sink, ct, numLayers-1-i)
				sink = top
			}
			top.outer = true
			for i := 0; i < calls; i++ {
				top.Acquire(0, 1)
			}
			means = append(means, ct.layers[top.layer].ns[clsSync]/calls)
		}
		return median(means)
	}
	one := meanDur(1)
	return calibration{self: one, nested: math.Max(0, meanDur(2)-one)}
}

// timed is the timing decorator in front of one layer.
type timed struct {
	next  event.Sink
	ct    *chainTrace
	layer int
	outer bool // the decorator the engine calls: makes the sampling decision
}

func newTimed(next event.Sink, ct *chainTrace, layer int) *timed {
	if !ct.present[layer] {
		ct.present[layer] = true
		ct.order = append(ct.order, layer)
		sort.Ints(ct.order)
	}
	return &timed{next: next, ct: ct, layer: layer}
}

// access books an access call and reports whether to time it.
func (s *timed) access() bool {
	ct := s.ct
	ct.layers[s.layer].calls[clsAccess]++
	if s.outer {
		ct.target = -1
		if ct.gap--; ct.gap == 0 {
			ct.rng ^= ct.rng << 13
			ct.rng ^= ct.rng >> 7
			ct.rng ^= ct.rng << 17
			ct.gap = 1 + ct.rng%(2*accessSampleEvery-1)
			ct.target = ct.order[ct.turn]
			ct.turn = (ct.turn + 1) % len(ct.order)
		}
	}
	return ct.target == s.layer
}

func (s *timed) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if !s.access() {
		s.next.Read(tid, addr, size, pc)
		return
	}
	o := s.ct.open()
	s.next.Read(tid, addr, size, pc)
	s.ct.close(s.layer, clsAccess, event.OpRead, o)
}

func (s *timed) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if !s.access() {
		s.next.Write(tid, addr, size, pc)
		return
	}
	o := s.ct.open()
	s.next.Write(tid, addr, size, pc)
	s.ct.close(s.layer, clsAccess, event.OpWrite, o)
}

// timeCall times one non-access call of class cls.
func (s *timed) timeCall(cls int, op event.Op, call func()) {
	s.ct.layers[s.layer].calls[cls]++
	o := s.ct.open()
	call()
	s.ct.close(s.layer, cls, op, o)
}

func (s *timed) Acquire(tid vc.TID, l event.LockID) {
	s.timeCall(clsSync, event.OpAcquire, func() { s.next.Acquire(tid, l) })
}

func (s *timed) Release(tid vc.TID, l event.LockID) {
	s.timeCall(clsSync, event.OpRelease, func() { s.next.Release(tid, l) })
}

func (s *timed) AcquireShared(tid vc.TID, l event.LockID) {
	s.timeCall(clsSync, event.OpAcquireShared, func() { s.next.AcquireShared(tid, l) })
}

func (s *timed) ReleaseShared(tid vc.TID, l event.LockID) {
	s.timeCall(clsSync, event.OpReleaseShared, func() { s.next.ReleaseShared(tid, l) })
}

func (s *timed) Fork(parent, child vc.TID) {
	s.timeCall(clsSync, event.OpFork, func() { s.next.Fork(parent, child) })
}

func (s *timed) Join(parent, child vc.TID) {
	s.timeCall(clsSync, event.OpJoin, func() { s.next.Join(parent, child) })
}

func (s *timed) BarrierArrive(tid vc.TID, b event.BarrierID) {
	s.timeCall(clsSync, event.OpBarrierArrive, func() { s.next.BarrierArrive(tid, b) })
}

func (s *timed) BarrierDepart(tid vc.TID, b event.BarrierID) {
	s.timeCall(clsSync, event.OpBarrierDepart, func() { s.next.BarrierDepart(tid, b) })
}

func (s *timed) Malloc(tid vc.TID, addr, size uint64) {
	s.timeCall(clsMalloc, event.OpMalloc, func() { s.next.Malloc(tid, addr, size) })
}

func (s *timed) Free(tid vc.TID, addr, size uint64) {
	s.timeCall(clsFree, event.OpFree, func() { s.next.Free(tid, addr, size) })
}

// The Go-native surface forwards natively when the layer speaks it and
// lowers otherwise, exactly as the undecorated chain would.

func (s *timed) ChanSend(tid vc.TID, ch event.ChanID, capacity int) {
	s.timeCall(clsSync, event.OpChanSend, func() { event.DispatchChanSend(s.next, tid, ch, capacity) })
}

func (s *timed) ChanRecv(tid vc.TID, ch event.ChanID, capacity int) {
	s.timeCall(clsSync, event.OpChanRecv, func() { event.DispatchChanRecv(s.next, tid, ch, capacity) })
}

func (s *timed) ChanAck(tid vc.TID, ch event.ChanID, capacity int) {
	s.timeCall(clsSync, event.OpChanAck, func() { event.DispatchChanAck(s.next, tid, ch, capacity) })
}

func (s *timed) WGAdd(tid vc.TID, wg event.WGID, delta int) {
	s.timeCall(clsSync, event.OpWGAdd, func() { event.DispatchWGAdd(s.next, tid, wg, delta) })
}

func (s *timed) WGDone(tid vc.TID, wg event.WGID) {
	s.timeCall(clsSync, event.OpWGDone, func() { event.DispatchWGDone(s.next, tid, wg) })
}

func (s *timed) WGWait(tid vc.TID, wg event.WGID) {
	s.timeCall(clsSync, event.OpWGWait, func() { event.DispatchWGWait(s.next, tid, wg) })
}
