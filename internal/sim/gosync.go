// Go-native synchronization for virtual programs: channels (buffered and
// unbuffered, with select), and WaitGroups. Blocking semantics follow the
// Go runtime — FIFO sender/receiver queues, rendezvous on unbuffered
// channels, value handoff from blocked senders on buffer slots freeing —
// and the emitted event stream realizes the Go memory model's edges (see
// event.GoSink).
//
// Two stream invariants matter for the detector's per-channel FIFO clock
// pairing and are maintained here:
//
//  1. A channel state mutation (value enqueue/dequeue) is adjacent to the
//     event announcing it, with no scheduling point in between, so the k-th
//     ChanSend event corresponds to the k-th value entering the channel.
//     Multi-event sequences count each event and charge the quantum once
//     at the end (Engine.countEvent / Thread.charge).
//  2. The engine may emit events on a blocked thread's behalf: the
//     unbuffered rendezvous emits ChanSend/ChanRecv/ChanAck back-to-back
//     whichever side arrived last, and a receiver freeing a buffer slot
//     emits the blocked sender's ChanSend as it moves the value in.
//     Likewise the WGDone that releases waiters emits their WGWait events
//     before waking them, so no later publication can slip in front.
package sim

import (
	"fmt"

	"repro/internal/event"
)

// ChanID and WGID name virtual channels and WaitGroups; aliases of the
// event-stream ids so workload code does not need to import the event
// package.
type (
	ChanID = event.ChanID
	WGID   = event.WGID
)

// chanState is one virtual channel. vals holds buffered values in FIFO
// order; sendq holds blocked senders with their pending values; recvq holds
// blocked receivers (including selectors, which appear in every queue they
// wait on).
type chanState struct {
	capacity int
	vals     []uint64
	sendq    []chanSender
	recvq    []*Thread
}

type chanSender struct {
	t *Thread
	v uint64
}

// claimRecv pops the oldest still-claimable receiver from the queue. A
// selector sits in every queue it waits on and a woken receiver stays
// queued until it runs and deregisters, so entries that are no longer
// blocked — or were already handed a rendezvous value (recvDirect) — must
// be skipped, never woken a second time; the owner removes them when it
// resumes.
func (cs *chanState) claimRecv() *Thread {
	for i, w := range cs.recvq {
		if w.status == statusBlocked && !w.recvDirect {
			cs.recvq = append(cs.recvq[:i], cs.recvq[i+1:]...)
			return w
		}
	}
	return nil
}

// wgState is one virtual WaitGroup.
type wgState struct {
	count   int
	waiters []*Thread
}

// NewChan creates a channel with the given capacity (0 = unbuffered).
func (t *Thread) NewChan(capacity int) event.ChanID {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: negative channel capacity %d", capacity))
	}
	e := t.eng
	e.chans = append(e.chans, &chanState{capacity: capacity})
	return event.ChanID(len(e.chans) - 1)
}

// Send sends v on ch, blocking while the channel is full (or, unbuffered,
// until a receiver arrives).
func (t *Thread) Send(ch event.ChanID, v uint64) {
	e := t.eng
	cs := e.chans[ch]
	if cs.capacity == 0 {
		if r := cs.claimRecv(); r != nil {
			e.rendezvous(t, r, ch, v, t)
			return
		}
		cs.sendq = append(cs.sendq, chanSender{t: t, v: v})
		t.block()
		// The receiver completed the rendezvous on our behalf.
		return
	}
	if len(cs.vals) < cs.capacity {
		e.countEvent()
		event.DispatchChanSend(e.sink, t.id, ch, cs.capacity)
		cs.vals = append(cs.vals, v)
		if r := cs.claimRecv(); r != nil {
			e.makeRunnable(r)
		}
		t.charge(1)
		return
	}
	cs.sendq = append(cs.sendq, chanSender{t: t, v: v})
	t.block()
	// The receiver that freed a slot moved our value in and emitted our
	// ChanSend on our behalf.
}

// Recv receives one value from ch, blocking while it is empty.
func (t *Thread) Recv(ch event.ChanID) uint64 {
	e := t.eng
	cs := e.chans[ch]
	for {
		if v, ok := t.tryRecv(ch); ok {
			return v
		}
		t.recvDirect = false
		cs.recvq = append(cs.recvq, t)
		t.block()
		removeThread(&cs.recvq, t)
		if t.recvDirect {
			// An unbuffered sender rendezvoused with us directly.
			return t.recvVal
		}
		// Woken by a buffered send; the value may have been taken by
		// another receiver in the meantime, so re-check.
	}
}

// Select blocks until one of the channels is receivable, picks uniformly
// (thread RNG) among the ready ones, and receives from it. It returns the
// chosen index and the value. Channels must be distinct.
func (t *Thread) Select(chs ...event.ChanID) (int, uint64) {
	if len(chs) == 0 {
		panic("sim: select over no channels")
	}
	e := t.eng
	for {
		var ready []int
		for i, ch := range chs {
			cs := e.chans[ch]
			if len(cs.vals) > 0 || (cs.capacity == 0 && len(cs.sendq) > 0) {
				ready = append(ready, i)
			}
		}
		if len(ready) > 0 {
			i := ready[t.Rand().Intn(len(ready))]
			if v, ok := t.tryRecv(chs[i]); ok {
				return i, v
			}
			continue
		}
		t.recvDirect = false
		for _, ch := range chs {
			cs := e.chans[ch]
			cs.recvq = append(cs.recvq, t)
		}
		t.block()
		for _, ch := range chs {
			removeThread(&e.chans[ch].recvq, t)
		}
		if t.recvDirect {
			for i, ch := range chs {
				if ch == t.recvChan {
					return i, t.recvVal
				}
			}
		}
	}
}

// tryRecv consumes one value from ch if it is immediately receivable.
func (t *Thread) tryRecv(ch event.ChanID) (uint64, bool) {
	e := t.eng
	cs := e.chans[ch]
	if cs.capacity == 0 {
		if len(cs.sendq) == 0 {
			return 0, false
		}
		s := cs.sendq[0]
		cs.sendq = cs.sendq[1:]
		return e.rendezvous(s.t, t, ch, s.v, t), true
	}
	if len(cs.vals) == 0 {
		return 0, false
	}
	v := cs.vals[0]
	cs.vals = cs.vals[1:]
	e.countEvent()
	event.DispatchChanRecv(e.sink, t.id, ch, cs.capacity)
	n := 1
	if len(cs.sendq) > 0 {
		// A slot freed: move the oldest blocked sender's value in,
		// emitting its ChanSend adjacent to the enqueue.
		s := cs.sendq[0]
		cs.sendq = cs.sendq[1:]
		e.countEvent()
		event.DispatchChanSend(e.sink, s.t.id, ch, cs.capacity)
		cs.vals = append(cs.vals, s.v)
		e.makeRunnable(s.t)
		n++
	}
	t.charge(n)
	return v, true
}

// rendezvous completes an unbuffered handoff from sender s to receiver r;
// active is the running side (the one that arrived last) and is charged for
// the three events. ChanSend, ChanRecv, ChanAck are emitted back-to-back —
// the ack realizing the "receive happens before the send completes" edge.
func (e *Engine) rendezvous(s, r *Thread, ch event.ChanID, v uint64, active *Thread) uint64 {
	e.countEvent()
	event.DispatchChanSend(e.sink, s.id, ch, 0)
	e.countEvent()
	event.DispatchChanRecv(e.sink, r.id, ch, 0)
	e.countEvent()
	event.DispatchChanAck(e.sink, s.id, ch, 0)
	if r == active {
		e.makeRunnable(s)
	} else {
		r.recvDirect = true
		r.recvChan = ch
		r.recvVal = v
		e.makeRunnable(r)
	}
	active.charge(3)
	return v
}

// removeThread deletes every occurrence of t from q, preserving order.
func removeThread(q *[]*Thread, t *Thread) {
	out := (*q)[:0]
	for _, w := range *q {
		if w != t {
			out = append(out, w)
		}
	}
	*q = out
}

// NewWaitGroup creates a WaitGroup with counter 0.
func (t *Thread) NewWaitGroup() event.WGID {
	e := t.eng
	e.wgs = append(e.wgs, &wgState{})
	return event.WGID(len(e.wgs) - 1)
}

// WGAdd increases the group's counter by delta (> 0; decrements go through
// WGDone, matching the errgroup-style fork–join usage).
func (t *Thread) WGAdd(wg event.WGID, delta int) {
	if delta <= 0 {
		panic(fmt.Sprintf("sim: WaitGroup add of %d (use WGDone to decrement)", delta))
	}
	e := t.eng
	ws := e.wgs[wg]
	ws.count += delta
	e.countEvent()
	event.DispatchWGAdd(e.sink, t.id, wg, delta)
	t.charge(1)
}

// WGDone decrements the counter; the Done that reaches zero releases every
// waiter, emitting their WGWait events (adjacent to the releasing Done, so
// the waits absorb exactly the publications that happened before them)
// before making them runnable.
func (t *Thread) WGDone(wg event.WGID) {
	e := t.eng
	ws := e.wgs[wg]
	if ws.count <= 0 {
		panic("sim: WaitGroup counter underflow")
	}
	ws.count--
	e.countEvent()
	event.DispatchWGDone(e.sink, t.id, wg)
	n := 1
	if ws.count == 0 {
		for _, w := range ws.waiters {
			e.countEvent()
			event.DispatchWGWait(e.sink, w.id, wg)
			e.makeRunnable(w)
			n++
		}
		ws.waiters = ws.waiters[:0]
	}
	t.charge(n)
}

// WGWait blocks until the group's counter is zero.
func (t *Thread) WGWait(wg event.WGID) {
	e := t.eng
	ws := e.wgs[wg]
	if ws.count > 0 {
		ws.waiters = append(ws.waiters, t)
		t.block()
		// The releasing WGDone emitted our WGWait event.
		return
	}
	e.countEvent()
	event.DispatchWGWait(e.sink, t.id, wg)
	t.charge(1)
}
