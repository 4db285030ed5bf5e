// Package sampling implements a LiteRace-style sampling front end (Marino
// et al., PLDI 2009 — the paper's related work [14]): a wrapper that
// forwards only a sample of memory accesses to an underlying race
// detector, while always forwarding every synchronization operation (the
// happens-before structure must stay exact or the detector would invent
// races).
//
// Sampling follows LiteRace's cold-region hypothesis with a granularity
// twist in the spirit of the reproduced paper: a region is one code site
// × one 64-byte address block (Options.BlockShift), not a code site
// alone. Each region starts at a 100% sampling rate that decays
// geometrically as it gets hotter, down to a floor. Rarely exercised
// site×block pairs — where races hide, because hot paths get tested —
// keep being analyzed; hot inner loops stop paying for instrumentation.
// Keying regions on the address block as well as the site is what
// preserves recall under tight budgets: a racy address's first accesses
// form a fresh cold region even when the touching code site is hot.
//
// The budget is a steady-state target. Untouched-cold-region first
// bursts ride above it by design (dropping them is what destroys
// recall), so on streaming access patterns — where most blocks are seen
// only a handful of times — the achieved fraction floors at the cold
// mass regardless of budget; on iterating workloads it converges to the
// budget as the run amortizes its cold start.
//
// Like every event.Sink, the sampler has a single producer: region state
// lives in a plain open-addressed table the sampler owns, and each access
// costs one probe, one load and one store of the packed state. It may
// still front the parallel pipeline, the remote client or the cluster
// fan-out sink — those fan out behind it. Two observers may run on other
// goroutines while events flow: SetRatePermille (the Controller's knob,
// an atomic) and scrapes of the telemetry it registers. Counts and Rate
// are for the producer, or for after the run. The skip path allocates
// nothing (the table only grows when a cold region is first seen).
//
// On top of the per-region decay sits a global budget (RatePermille, set
// from race.Options.Budget): hot regions converge to the budget rate, a
// run-wide credit check keeps the overall forwarded fraction at or under
// the budget, and a rate of 1000‰ short-circuits into pure pass-through —
// byte-identical to no sampler at all. SetRatePermille is the knob the
// feedback Controller turns at run time.
package sampling

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/vc"
)

// Options configure the sampler.
type Options struct {
	// BurstLength is how many accesses of a region are forwarded each time
	// its budget refreshes (default 10, as in LiteRace).
	BurstLength uint32
	// Decay multiplies a region's inter-burst gap each time its budget is
	// exhausted (default 2).
	Decay uint32
	// FloorPermille is the minimum sampling rate in ‰ (default 1, i.e.
	// 0.1%). Regions never decay below it, and the Controller never
	// pushes the global rate under it.
	FloorPermille uint32
	// BlockShift sets the region granularity: a region is one code site ×
	// one 2^BlockShift-byte address block (default 6, i.e. 64-byte
	// blocks). Including address bits in the region key is what preserves
	// recall under tight budgets — a racy address's first accesses are a
	// fresh cold region even when its code site is hot. 64 or more
	// degenerates to classic LiteRace site-only regions.
	BlockShift uint8
	// RatePermille is the initial global sampling budget in ‰. 0 keeps
	// the classic LiteRace behaviour (decay to FloorPermille, no global
	// credit check); 1..999 makes hot regions converge on that rate and
	// caps the run-wide forwarded fraction at it; >= 1000 is pure
	// pass-through (every access forwarded, no state touched) so a 100%
	// budget is byte-identical to running without the sampler.
	RatePermille uint32
	// Telemetry, when non-nil, registers sampling_forwarded_total /
	// sampling_skipped_total counters and the detector_sampled_fraction
	// gauge on the registry.
	Telemetry *telemetry.Registry
}

// Region state packs into one uint64:
//
//	bits  0–15  remaining  accesses left in the current burst
//	bits 16–39  skip       accesses to skip before the next refresh
//	bits 40–63  gap        current inter-burst gap (grows by Decay)
const (
	remainingBits = 16
	skipBits      = 24
	gapBits       = 24
	maxRemaining  = 1<<remainingBits - 1
	maxGapValue   = 1<<gapBits - 1
)

func packState(remaining, skip, gap uint32) uint64 {
	return uint64(remaining) | uint64(skip)<<remainingBits |
		uint64(gap)<<(remainingBits+skipBits)
}

func unpackState(s uint64) (remaining, skip, gap uint32) {
	return uint32(s & maxRemaining),
		uint32(s >> remainingBits & (1<<skipBits - 1)),
		uint32(s >> (remainingBits + skipBits))
}

// slot is one open-addressed table entry: a nonzero region key (zero
// means empty) and the packed region state. 16 bytes.
type slot struct {
	key, state uint64
}

// Metrics is the sampler's telemetry instrument set. All fields are
// nil-safe: NewMetrics(nil) returns no-op instruments.
type Metrics struct {
	Forwarded *telemetry.Counter
	Skipped   *telemetry.Counter
}

// NewMetrics registers the sampling counters on r (nil r → no-ops).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Forwarded: r.Counter("sampling_forwarded_total",
			"Memory accesses the sampling front end forwarded to the detector."),
		Skipped: r.Counter("sampling_skipped_total",
			"Memory accesses the sampling front end dropped (sync is never dropped)."),
	}
}

// Detector wraps an underlying sink with adaptive sampling; it implements
// event.Sink and event.GoSink. Like every sink it has a single producer;
// only SetRatePermille and the telemetry it registers may be used from
// other goroutines while events flow.
type Detector struct {
	opt   Options
	under event.Sink

	rate atomic.Uint32 // global budget in ‰; >=1000 → pass-through

	slots []slot // open-addressed region table, power-of-two length
	used  int

	forwarded, skipped uint64

	met *Metrics
}

// New wraps under with a LiteRace-style sampler.
func New(under event.Sink, opt Options) *Detector {
	if opt.BurstLength == 0 {
		opt.BurstLength = 10
	}
	if opt.BurstLength > maxRemaining {
		opt.BurstLength = maxRemaining
	}
	if opt.Decay == 0 {
		opt.Decay = 2
	}
	if opt.FloorPermille == 0 {
		opt.FloorPermille = 1
	}
	if opt.BlockShift == 0 {
		opt.BlockShift = 6
	}
	d := &Detector{opt: opt, under: under, met: NewMetrics(opt.Telemetry), slots: make([]slot, 1024)}
	d.rate.Store(opt.RatePermille)
	if opt.Telemetry != nil {
		opt.Telemetry.GaugeFunc("detector_sampled_fraction",
			"Fraction of memory accesses forwarded to the detector (1 when unsampled).",
			func() float64 { return fraction(d.met.Forwarded.Load(), d.met.Skipped.Load()) })
	}
	return d
}

// SetRatePermille sets the global sampling budget in ‰ (the Controller's
// knob). Values >= 1000 turn the sampler into a pass-through; values
// below FloorPermille are clamped up to it. Safe to call from any
// goroutine.
func (d *Detector) SetRatePermille(r uint32) {
	if r < d.opt.FloorPermille {
		r = d.opt.FloorPermille
	}
	d.rate.Store(r)
}

// RatePermille returns the current global budget in ‰ (0 = unbudgeted
// classic LiteRace decay). Safe to call from any goroutine.
func (d *Detector) RatePermille() uint32 { return d.rate.Load() }

// Counts returns the forwarded/skipped access tallies. Call it from the
// producer or after the run; observers on other goroutines read the
// sampling_* telemetry counters instead.
func (d *Detector) Counts() (forwarded, skipped uint64) {
	return d.forwarded, d.skipped
}

// Rate returns the effective sampling rate over the run so far (1 when no
// access has been observed, and on the 100% pass-through lane, which
// counts nothing). Same caller rule as Counts.
func (d *Detector) Rate() float64 { return fraction(d.forwarded, d.skipped) }

// fraction is forwarded/(forwarded+skipped), 1 when both are zero.
func fraction(f, s uint64) float64 {
	if f+s == 0 {
		return 1
	}
	return float64(f) / float64(f+s)
}

// maxGap is the inter-burst gap at which a region's steady-state rate
// reaches the effective floor: Burst forwarded out of every Burst+gap.
func (d *Detector) maxGap(rate uint32) uint32 {
	r := rate
	if r == 0 || r < d.opt.FloorPermille {
		r = d.opt.FloorPermille
	}
	g := d.opt.BurstLength * 1000 / r
	if g > maxGapValue {
		g = maxGapValue
	}
	if g < 1 {
		g = 1
	}
	return g
}

// regionKey mixes the code site and the address block into the nonzero
// table key. The Fibonacci multiply spreads block bits across the word so
// (site, block) pairs rarely collide; a collision only merges two
// regions' sampling state, never correctness.
func (d *Detector) regionKey(pc event.PC, addr uint64) uint64 {
	k := ((addr>>d.opt.BlockShift)+1)*0x9E3779B97F4A7C15 ^ (uint64(pc) + 1)
	if k == 0 {
		k = 1 // zero marks an empty slot
	}
	return k
}

// lookup returns the slot for region key k, inserting it (state zero =
// untouched cold region) on first sight. An insert that brings the table
// to 3/4 full doubles it first, so the slot returned is always live.
func (d *Detector) lookup(k uint64) *slot {
	s := d.probe(k)
	if s.key == 0 {
		d.used++
		if d.used*4 >= len(d.slots)*3 {
			d.grow()
			s = d.probe(k)
		}
		s.key = k
	}
	return s
}

// probe returns k's slot, or the empty slot where k belongs.
func (d *Detector) probe(k uint64) *slot {
	mask := uint64(len(d.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15 >> 32) & mask; ; i = (i + 1) & mask {
		if s := &d.slots[i]; s.key == k || s.key == 0 {
			return s
		}
	}
}

// grow doubles the region table, carrying every region's state over.
func (d *Detector) grow() {
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.key != 0 {
			*d.probe(s.key) = s
		}
	}
}

// sample decides whether this access of the region at (pc, addr block)
// is analyzed.
func (d *Detector) sample(pc event.PC, addr uint64) bool {
	rate := d.rate.Load()
	if rate >= 1000 {
		// 100% budget: pure pass-through, no counters, no region state —
		// byte-identical to no sampler.
		return true
	}
	s := d.lookup(d.regionKey(pc, addr))
	remaining, skip, gap := unpackState(s.state)
	firstBurst := gap == 0 ||
		(skip == 0 && remaining > 0 && gap == d.opt.BurstLength)
	forward := true
	switch {
	case remaining > 0:
		s.state = packState(remaining-1, skip, gap)
	case skip > 0:
		forward = false
		s.state = packState(0, skip-1, gap)
	case gap == 0:
		// Untouched cold region: full first burst, no skip yet.
		s.state = packState(d.opt.BurstLength-1, 0, d.opt.BurstLength)
	default:
		// Budget refresh: the gap grows until the floor rate is reached.
		maxGap := d.maxGap(rate)
		g := gap
		if hi, lo := bits.Mul32(gap, d.opt.Decay); hi == 0 {
			g = lo
		} else {
			g = maxGap
		}
		if g > maxGap {
			g = maxGap
		}
		s.state = packState(d.opt.BurstLength-1, g, g)
	}
	if forward && rate > 0 && !firstBurst &&
		d.forwarded*1000 >= (d.forwarded+d.skipped+1)*uint64(rate) {
		// Global credit check: once the run-wide forwarded fraction is at
		// the budget, only untouched-cold-region bursts may exceed it.
		forward = false
	}
	if forward {
		d.forwarded++
		d.met.Forwarded.Inc()
	} else {
		d.skipped++
		d.met.Skipped.Inc()
	}
	return forward
}

// Read forwards a sampled read.
func (d *Detector) Read(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if d.sample(pc, addr) {
		d.under.Read(tid, addr, size, pc)
	}
}

// Write forwards a sampled write.
func (d *Detector) Write(tid vc.TID, addr uint64, size uint32, pc event.PC) {
	if d.sample(pc, addr) {
		d.under.Write(tid, addr, size, pc)
	}
}

// Synchronization and heap events are never sampled away.
func (d *Detector) Acquire(t vc.TID, l event.LockID) { d.under.Acquire(t, l) }
func (d *Detector) Release(t vc.TID, l event.LockID) { d.under.Release(t, l) }
func (d *Detector) AcquireShared(t vc.TID, l event.LockID) {
	d.under.AcquireShared(t, l)
}
func (d *Detector) ReleaseShared(t vc.TID, l event.LockID) {
	d.under.ReleaseShared(t, l)
}
func (d *Detector) Fork(p, c vc.TID) { d.under.Fork(p, c) }
func (d *Detector) Join(p, c vc.TID) { d.under.Join(p, c) }
func (d *Detector) BarrierArrive(t vc.TID, b event.BarrierID) {
	d.under.BarrierArrive(t, b)
}
func (d *Detector) BarrierDepart(t vc.TID, b event.BarrierID) {
	d.under.BarrierDepart(t, b)
}
func (d *Detector) Malloc(t vc.TID, a, s uint64) { d.under.Malloc(t, a, s) }
func (d *Detector) Free(t vc.TID, a, s uint64)   { d.under.Free(t, a, s) }

// Go-native synchronization is never sampled either: the Dispatch helpers
// pass it through when the underlying sink speaks event.GoSink and lower
// it onto the synthetic locks otherwise, exactly as an unwrapped sink.
func (d *Detector) ChanSend(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanSend(d.under, t, ch, c)
}
func (d *Detector) ChanRecv(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanRecv(d.under, t, ch, c)
}
func (d *Detector) ChanAck(t vc.TID, ch event.ChanID, c int) {
	event.DispatchChanAck(d.under, t, ch, c)
}
func (d *Detector) WGAdd(t vc.TID, wg event.WGID, delta int) {
	event.DispatchWGAdd(d.under, t, wg, delta)
}
func (d *Detector) WGDone(t vc.TID, wg event.WGID) { event.DispatchWGDone(d.under, t, wg) }
func (d *Detector) WGWait(t vc.TID, wg event.WGID) { event.DispatchWGWait(d.under, t, wg) }
