// Lock-free SPSC batch rings: the router→worker hand-off of the sharded
// pipeline. The router (single producer) and each detection worker (single
// consumer) exchange *event.Cols through a power-of-two ring indexed by
// two monotonically increasing cursors. The common case — ring neither
// full nor empty — is a slot store plus one atomic cursor store on the
// producer side and the mirror image on the consumer side: no locks, no
// channel send, no goroutine wakeup.
//
// # Memory ordering
//
// Go's sync/atomic operations are sequentially consistent, which gives the
// two orderings the ring needs:
//
//   - Publication: the producer writes buf[tail&mask] before storing
//     tail+1; the consumer loads tail before reading buf[head&mask]. The
//     atomic store/load pair orders the slot write before the slot read
//     (release/acquire), so batch contents are fully visible to the
//     worker.
//   - Sleep/wake (Dekker): before blocking, a side stores its parked flag
//     and then re-loads the opposing cursor; the opposing side stores its
//     cursor and then loads the flag. Sequential consistency forbids both
//     loads seeing stale values, so a producer can never park in the
//     instant the consumer makes room without one of them noticing.
//
// # Spin-then-park
//
// A blocked side first spins a bounded number of rounds (yielding the
// processor between re-checks) — detection workers usually drain within a
// few microseconds, and spinning avoids the ~1µs park/unpark round trip on
// that path. Past the budget it publishes its parked flag and blocks on a
// one-token wake channel. The waking side claims the flag with a CAS, so
// exactly one token is ever in flight per park; a side that finds its
// condition satisfied after publishing the flag either un-parks itself
// (CAS wins) or absorbs the token the opposing side is committed to
// sending (CAS lost). Parks are counted per side — the
// pipeline_ring_parks_total telemetry separates "router stalls on a slow
// shard" from "worker starved for input".
package pipeline

import (
	"runtime"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/telemetry"
)

// spinBudget is the number of yield-and-recheck rounds a blocked side
// performs before parking. Bounded so a stalled peer costs a few
// microseconds of CPU, not a busy core.
const spinBudget = 64

// cachePad separates the producer and consumer cursors (and the cold
// fields) onto distinct cache lines so cursor stores on one side never
// invalidate the line the other side is spinning on (false sharing).
type cachePad [64]byte

// ring is the lock-free single-producer/single-consumer batch queue.
// head and tail are free-running uint64 cursors (they index buf modulo
// its power-of-two length), so full/empty tests are plain subtraction and
// wrap-around needs no special casing: tail-head is the occupancy even
// across uint64 overflow.
type ring struct {
	buf  []*event.Cols
	mask uint64

	// prodParks/consParks count park events per side (nil-safe no-ops
	// when telemetry is off).
	prodParks *telemetry.Counter
	consParks *telemetry.Counter

	_    cachePad
	tail atomic.Uint64 // next slot the producer fills; owned by send
	_    cachePad
	head atomic.Uint64 // next slot the consumer drains; owned by recv
	_    cachePad

	closed     atomic.Bool
	prodParked atomic.Bool
	consParked atomic.Bool
	prodWake   chan struct{}
	consWake   chan struct{}
}

// newRing returns a ring with capacity depth rounded up to a power of two.
func newRing(depth int, prodParks, consParks *telemetry.Counter) *ring {
	n := 1
	for n < depth {
		n <<= 1
	}
	return &ring{
		buf:       make([]*event.Cols, n),
		mask:      uint64(n - 1),
		prodParks: prodParks,
		consParks: consParks,
		prodWake:  make(chan struct{}, 1),
		consWake:  make(chan struct{}, 1),
	}
}

func (r *ring) len() int {
	d := r.tail.Load() - r.head.Load()
	if d > uint64(len(r.buf)) { // torn snapshot of two free-running cursors
		return len(r.buf)
	}
	return int(d)
}

func (r *ring) capacity() int { return len(r.buf) }

// wake transfers the one wake token to a parked peer. The CAS claims the
// flag, so of all concurrent wakers (there is at most one, but close and
// send may both run it) exactly one sends, and the channel's single slot
// can never block.
func wake(parked *atomic.Bool, ch chan struct{}) {
	if parked.Load() && parked.CompareAndSwap(true, false) {
		ch <- struct{}{}
	}
}

// send enqueues c, spinning then parking while the ring is full. Producer
// goroutine only.
func (r *ring) send(c *event.Cols) {
	t := r.tail.Load()
	spins := 0
	for {
		if t-r.head.Load() < uint64(len(r.buf)) {
			r.buf[t&r.mask] = c
			r.tail.Store(t + 1) // publishes the slot write (release)
			wake(&r.consParked, r.consWake)
			return
		}
		if spins < spinBudget {
			spins++
			runtime.Gosched()
			continue
		}
		// Park: publish the flag, then re-check (Dekker with the
		// consumer's head store / flag load).
		r.prodParks.Inc()
		r.prodParked.Store(true)
		if t-r.head.Load() < uint64(len(r.buf)) {
			if r.prodParked.CompareAndSwap(true, false) {
				continue // un-parked ourselves; no token in flight
			}
			<-r.prodWake // consumer claimed the flag; absorb its token
			continue
		}
		<-r.prodWake
		spins = 0
	}
}

// recv dequeues the next batch, spinning then parking while the ring is
// empty; it returns ok=false once the ring is closed and drained.
// Consumer goroutine only.
func (r *ring) recv() (*event.Cols, bool) {
	h := r.head.Load()
	spins := 0
	for {
		if r.tail.Load() > h { // acquire: slot write visible below
			c := r.buf[h&r.mask]
			r.buf[h&r.mask] = nil // drop the reference; the pool owns it next
			r.head.Store(h + 1)
			wake(&r.prodParked, r.prodWake)
			return c, true
		}
		if r.closed.Load() {
			// closed is stored after the producer's final tail store, so
			// an empty ring here is empty for good.
			if r.tail.Load() > h {
				continue
			}
			return nil, false
		}
		if spins < spinBudget {
			spins++
			runtime.Gosched()
			continue
		}
		r.consParks.Inc()
		r.consParked.Store(true)
		if r.tail.Load() > h || r.closed.Load() {
			if r.consParked.CompareAndSwap(true, false) {
				continue
			}
			<-r.consWake
			continue
		}
		<-r.consWake
		spins = 0
	}
}

// close marks the ring finished and wakes a parked consumer so it can
// observe the close. Producer goroutine only, after its last send.
func (r *ring) close() {
	r.closed.Store(true)
	wake(&r.consParked, r.consWake)
}
