// Package sim is the execution substrate that replaces Intel PIN in this
// reproduction. The paper instruments native pthread programs with dynamic
// binary instrumentation and feeds every memory access and synchronization
// operation to the detector; a Go library cannot instrument C/C++ binaries,
// so sim executes *virtual* multithreaded programs and delivers the same
// event stream (reads, writes, lock operations, fork/join, barriers, heap
// management) to an event.Sink.
//
// Programs are ordinary Go functions over a Thread handle. The engine runs
// virtual threads as goroutines but schedules them cooperatively — exactly
// one thread executes at any instant, chosen by a seeded RNG — so every run
// is fully deterministic: the same program and seed produce the same
// interleaving, the same event stream, and therefore the same race reports.
// Happens-before detectors do not depend on the observed interleaving to
// find races (only synchronization induces ordering), so determinism costs
// no detection coverage while making experiments reproducible.
//
// Blocking semantics follow pthreads: mutexes with FIFO waiter queues,
// reader-writer locks with writer preference, counting barriers, condition
// variables whose wait atomically releases and reacquires the mutex, and
// fork/join. A virtual heap allocator provides malloc/free with size-class
// reuse and tracks the analyzed program's peak footprint — the "Base
// memory" column of Table 1.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/event"
	"repro/internal/vc"
)

// Program is a virtual multithreaded program: a name and the body of its
// main thread. The main thread spawns workers through Thread.Go.
type Program struct {
	Name string
	Main func(t *Thread)
}

// Options configure an engine run.
type Options struct {
	// Seed drives every scheduling decision. Runs with equal seeds are
	// identical. The zero seed is used as-is.
	Seed int64
	// Quantum bounds how many events a thread delivers before the scheduler
	// may switch. 0 means the default of 64.
	Quantum int
	// MaxEvents aborts the run (via panic) after this many events; 0 means
	// unlimited. A guard against runaway workloads.
	MaxEvents uint64
	// Deadline, when non-zero, stops scheduling once the wall clock passes
	// it; Stats.TimedOut is set. The harness uses this to emulate the
	// paper's ">24 hours, analysis stopped" outcomes within a benchmark
	// budget. Virtual threads that have not finished are unwound before
	// Run returns.
	Deadline time.Time
}

// Stats summarizes one run of a program.
type Stats struct {
	// Events is the total number of events delivered to the sink.
	Events uint64
	// Accesses is the number of Read/Write events delivered.
	Accesses uint64
	// Threads is the total number of threads ever created (including main).
	Threads int
	// PeakHeapBytes is the analyzed program's own maximum live heap — the
	// base memory that detector overhead factors are normalized by.
	PeakHeapBytes uint64
	// AllocBytes is the total number of heap bytes ever allocated (dedup's
	// 14 GB churn column in Section V.A corresponds to this).
	AllocBytes uint64
	// Mallocs and Frees count heap operations.
	Mallocs, Frees uint64
	// TimedOut reports that the run was stopped at Options.Deadline before
	// the program finished.
	TimedOut bool
}

type threadStatus uint8

const (
	statusReady threadStatus = iota
	statusRunning
	statusBlocked
	statusDone
)

// Thread is a handle to one virtual thread, passed to its body. All methods
// must be called from the thread's own body function.
type Thread struct {
	id  vc.TID
	eng *Engine

	resume chan struct{}
	status threadStatus
	budget int

	site event.PC
	rng  *rand.Rand // built by Rand on first use

	body    func(*Thread)
	joiners []*Thread

	// Direct-handoff slot for unbuffered channel receives (see gosync.go):
	// the rendezvousing sender deposits the value and the channel it chose
	// before waking the receiver (which may be parked in a Select over
	// several channels).
	recvDirect bool
	recvChan   event.ChanID
	recvVal    uint64
}

// ID returns the thread's id (main is 0; children are numbered in spawn
// order).
func (t *Thread) ID() vc.TID { return t.id }

// Rand returns the thread's private deterministic RNG, seeded from the
// engine seed and the thread id. It is built on first use: most programs
// never draw, and a math/rand source costs ~5 KB to seed.
func (t *Thread) Rand() *rand.Rand {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.eng.opts.Seed*1000003 + int64(t.id)))
	}
	return t.rng
}

// At sets the synthetic program counter (code-site id, application module)
// attributed to subsequent accesses.
func (t *Thread) At(site uint32) { t.site = event.MakePC(event.ModuleApp, site) }

// AtModule sets a program counter in an explicit module; workloads use it to
// emit accesses attributed to libc/ld, which suppression rules hide.
func (t *Thread) AtModule(m event.Module, site uint32) { t.site = event.MakePC(m, site) }

// Engine executes programs. Create one per run with Run.
type Engine struct {
	sink event.Sink
	rng  *rand.Rand
	opts Options

	threads  []*Thread
	runnable []*Thread
	// done is signalled by the thread that finds nothing left to schedule
	// (or, while unwinding, by each abandoned thread as it exits); Run waits
	// on it.
	done chan struct{}

	checkDeadline bool
	timedOut      bool
	// unwinding is set once the run is over; parked threads woken after
	// that exit instead of resuming their bodies.
	unwinding bool

	locks    []*lockState
	barriers []*barrierState
	conds    []*condState
	chans    []*chanState
	wgs      []*wgState
	heap     heapAlloc

	events   uint64
	accesses uint64
	fatal    any // panic forwarded from a virtual thread
}

type lockState struct {
	owner   vc.TID // vc.NoTID when free (or when held by readers)
	waiters []*Thread

	// Reader-writer extensions (pthread_rwlock semantics with writer
	// preference). Plain mutexes keep readers == 0 throughout.
	readers  int
	rwaiters []*Thread // blocked readers
}

type barrierState struct {
	parties int
	arrived []*Thread
	// departing counts threads that still owe a Depart event for the
	// completed generation; pending holds threads that reached the next
	// generation early and must wait for the drain, so that all Depart
	// events of generation N are delivered before any Arrive of N+1.
	departing int
	pending   []*Thread
}

type condState struct {
	waiters []*condWaiter
}

type condWaiter struct {
	t *Thread
	l event.LockID
}

// Run executes p against sink and returns run statistics. It panics on
// program errors (deadlock, unlock of unowned mutex, double free), which in
// this codebase indicate workload bugs rather than recoverable conditions.
func Run(p Program, sink event.Sink, opts Options) Stats {
	if opts.Quantum <= 0 {
		opts.Quantum = 64
	}
	e := &Engine{
		sink:          sink,
		rng:           rand.New(rand.NewSource(opts.Seed)),
		opts:          opts,
		done:          make(chan struct{}),
		checkDeadline: !opts.Deadline.IsZero(),
	}
	e.heap.init()

	main := e.newThread(p.Main)
	e.runnable = append(e.runnable, main)
	if t := e.pick(); t != nil {
		t.resume <- struct{}{}
		<-e.done
	}
	st := Stats{
		TimedOut:      e.timedOut,
		Events:        e.events,
		Accesses:      e.accesses,
		Threads:       len(e.threads),
		PeakHeapBytes: e.heap.peakBytes,
		AllocBytes:    e.heap.allocBytes,
		Mallocs:       e.heap.mallocs,
		Frees:         e.heap.frees,
	}
	e.finish(p.Name)
	return st
}

func (e *Engine) newThread(body func(*Thread)) *Thread {
	t := &Thread{
		id:     vc.TID(len(e.threads)),
		eng:    e,
		resume: make(chan struct{}),
		status: statusReady,
		body:   body,
	}
	e.threads = append(e.threads, t)
	go t.run()
	return t
}

func (t *Thread) run() {
	e := t.eng
	finished := false
	defer func() {
		// Reached without finishing only through runtime.Goexit in wait:
		// the run is over and this thread is being unwound.
		if !finished {
			e.done <- struct{}{}
		}
	}()
	t.wait()
	func() {
		// Program errors (double free, bad unlock, event budget) panic on
		// the virtual thread's goroutine; forward them so they surface
		// from Run on the caller's goroutine. A deferred call that panics
		// while the thread is being unwound is dropped: the run is over.
		defer func() {
			if r := recover(); r != nil && !e.unwinding {
				e.fatal = r
			}
		}()
		t.body(t)
	}()
	finished = true
	t.status = statusDone
	for _, j := range t.joiners {
		e.makeRunnable(j)
	}
	t.joiners = nil
	var next *Thread
	if e.fatal == nil {
		next = e.pick()
	}
	e.switchTo(next)
}

// pick is the scheduling decision: it removes a seeded-random runnable
// thread from the run queue and readies it to run a fresh quantum. It
// returns nil when nothing is runnable or the deadline has passed (then
// timedOut is set). Every switch goes through pick, so the RNG draws — and
// therefore the schedule — depend only on the seed.
func (e *Engine) pick() *Thread {
	if len(e.runnable) == 0 {
		return nil
	}
	if e.checkDeadline && time.Now().After(e.opts.Deadline) {
		e.timedOut = true
		return nil
	}
	i := e.rng.Intn(len(e.runnable))
	t := e.runnable[i]
	e.runnable[i] = e.runnable[len(e.runnable)-1]
	e.runnable = e.runnable[:len(e.runnable)-1]
	t.status = statusRunning
	t.budget = e.opts.Quantum
	return t
}

// switchTo hands the execution token to next, or back to Run when next is
// nil. The caller must not touch engine state afterwards until it is
// handed the token again.
func (e *Engine) switchTo(next *Thread) {
	if next == nil {
		e.done <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// wait blocks until the thread is handed the execution token. A thread
// woken after the run is over unwinds instead: runtime.Goexit runs the
// body's deferred calls and ends the goroutine, and no recover can stop
// it.
func (t *Thread) wait() {
	<-t.resume
	if t.eng.unwinding {
		runtime.Goexit()
	}
}

// finish ends a run: it unwinds the threads a run stopped early left
// behind (deadline, event budget, program panic, deadlock) and surfaces a
// forwarded panic or a deadlock.
func (e *Engine) finish(name string) {
	var blocked *Thread
	for _, t := range e.threads {
		if t.status != statusDone {
			blocked = t
			break
		}
	}
	if blocked != nil {
		e.unwind()
	}
	if e.fatal != nil {
		panic(e.fatal)
	}
	if blocked != nil && !e.timedOut {
		panic(fmt.Sprintf("sim: deadlock in %q: thread %d blocked at exit", name, blocked.id))
	}
}

// unwind ends the goroutine of every unfinished thread, one at a time, so
// an abandoned run leaves nothing parked behind. Each such goroutine is
// blocked in wait. Events a body's deferred calls might emit go nowhere,
// and such a call that would yield or block ends the goroutine instead.
func (e *Engine) unwind() {
	e.unwinding = true
	e.sink = event.Nop{}
	for _, t := range e.threads {
		if t.status != statusDone {
			t.resume <- struct{}{}
			<-e.done
		}
	}
}

func (e *Engine) makeRunnable(t *Thread) {
	t.status = statusReady
	e.runnable = append(e.runnable, t)
}

// park gives up the execution token: a thread whose quantum ran out (still
// running) rejoins the run queue, then the next thread is picked and woken
// directly. Re-picking the parking thread itself costs no switch at all.
func (t *Thread) park() {
	e := t.eng
	if e.unwinding {
		// A deferred call of a body being unwound tried to schedule.
		runtime.Goexit()
	}
	if t.status == statusRunning {
		t.status = statusReady
		e.runnable = append(e.runnable, t)
	}
	next := e.pick()
	if next == t {
		return
	}
	e.switchTo(next)
	t.wait()
}

// countEvent accounts one delivered event against the run's event budget
// without a scheduling point.
func (e *Engine) countEvent() {
	e.events++
	if e.opts.MaxEvents > 0 && e.events > e.opts.MaxEvents {
		panic(fmt.Sprintf("sim: event budget %d exceeded", e.opts.MaxEvents))
	}
}

// charge deducts n events from the thread's quantum, yielding to the
// scheduler when it is exhausted. Operations that must emit several events
// without an intervening scheduling point (channel rendezvous) count each
// event as it is emitted and charge once at the end.
func (t *Thread) charge(n int) {
	t.budget -= n
	if t.budget <= 0 {
		// status stays Running; the scheduler re-queues the thread.
		t.park()
		t.budget = t.eng.opts.Quantum
	}
}

// tick charges one event against the thread's quantum, yielding to the
// scheduler when it is exhausted.
func (t *Thread) tick() {
	t.eng.countEvent()
	t.charge(1)
}

// block parks the thread until something (unlock, barrier completion,
// signal, child exit) makes it runnable again.
func (t *Thread) block() {
	t.status = statusBlocked
	t.park()
}

// Yield voluntarily ends the thread's scheduling quantum.
func (t *Thread) Yield() {
	t.park()
	t.budget = t.eng.opts.Quantum
}

// ---- Memory accesses ----

// Read delivers a shared read of size bytes at addr.
func (t *Thread) Read(addr uint64, size uint32) {
	t.eng.accesses++
	t.eng.sink.Read(t.id, addr, size, t.site)
	t.tick()
}

// Write delivers a shared write of size bytes at addr.
func (t *Thread) Write(addr uint64, size uint32) {
	t.eng.accesses++
	t.eng.sink.Write(t.id, addr, size, t.site)
	t.tick()
}

// Local returns the address of a thread-local (stack) slot: per-thread
// storage in the non-shared region that detectors filter out immediately
// (Figure 3's nonsharedread check). Each thread has a 1 MiB stack window.
func (t *Thread) Local(offset uint64) uint64 {
	return event.StackBase + uint64(t.id)<<20 + offset
}

// ReadBlock reads n units of size bytes starting at addr, stride size.
func (t *Thread) ReadBlock(addr uint64, size uint32, n int) {
	for i := 0; i < n; i++ {
		t.Read(addr+uint64(i)*uint64(size), size)
	}
}

// WriteBlock writes n units of size bytes starting at addr, stride size.
func (t *Thread) WriteBlock(addr uint64, size uint32, n int) {
	for i := 0; i < n; i++ {
		t.Write(addr+uint64(i)*uint64(size), size)
	}
}

// ---- Threads ----

// Go spawns a child thread running body and returns its handle for Join.
func (t *Thread) Go(body func(*Thread)) *Thread {
	e := t.eng
	child := e.newThread(body)
	e.sink.Fork(t.id, child.id)
	e.makeRunnable(child)
	t.tick()
	return child
}

// Join blocks until child finishes. The Join event is delivered after the
// child's last event, establishing the child-to-parent happens-before edge.
func (t *Thread) Join(child *Thread) {
	if child.status != statusDone {
		child.joiners = append(child.joiners, t)
		t.block()
	}
	t.eng.sink.Join(t.id, child.id)
	t.tick()
}

// ---- Mutexes ----

// NewLock creates a mutex.
func (t *Thread) NewLock() event.LockID {
	e := t.eng
	e.locks = append(e.locks, &lockState{owner: vc.NoTID})
	return event.LockID(len(e.locks) - 1)
}

// Lock acquires mutex l (or write-locks rwlock l), blocking while it is
// held by a writer or by readers.
func (t *Thread) Lock(l event.LockID) {
	e := t.eng
	ls := e.locks[l]
	if ls.owner != vc.NoTID || ls.readers > 0 {
		ls.waiters = append(ls.waiters, t)
		t.block()
		// Ownership was transferred to us before we were woken.
		if ls.owner != t.id {
			panic("sim: lock handoff failed")
		}
	} else {
		ls.owner = t.id
	}
	e.sink.Acquire(t.id, l)
	t.tick()
}

// Unlock releases mutex l (or write-unlocks rwlock l): a waiting writer is
// preferred; otherwise all blocked readers are admitted.
func (t *Thread) Unlock(l event.LockID) {
	e := t.eng
	ls := e.locks[l]
	if ls.owner != t.id {
		panic(fmt.Sprintf("sim: thread %d unlocking lock %d owned by %d", t.id, l, ls.owner))
	}
	e.sink.Release(t.id, l)
	switch {
	case len(ls.waiters) > 0:
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = next.id
		e.makeRunnable(next)
	case len(ls.rwaiters) > 0:
		ls.owner = vc.NoTID
		ls.readers += len(ls.rwaiters)
		for _, r := range ls.rwaiters {
			e.makeRunnable(r)
		}
		ls.rwaiters = ls.rwaiters[:0]
	default:
		ls.owner = vc.NoTID
	}
	t.tick()
}

// NewRWLock creates a reader-writer lock. Write-side operations are Lock
// and Unlock; read-side operations are RLock and RUnlock.
func (t *Thread) NewRWLock() event.LockID { return t.NewLock() }

// RLock read-locks rwlock l: readers are admitted together but block while
// a writer holds or awaits the lock (writer preference).
func (t *Thread) RLock(l event.LockID) {
	e := t.eng
	ls := e.locks[l]
	if ls.owner != vc.NoTID || len(ls.waiters) > 0 {
		ls.rwaiters = append(ls.rwaiters, t)
		t.block()
		// The granter incremented the reader count on our behalf.
	} else {
		ls.readers++
	}
	e.sink.AcquireShared(t.id, l)
	t.tick()
}

// RUnlock releases a read lock; the last reader out admits a waiting
// writer.
func (t *Thread) RUnlock(l event.LockID) {
	e := t.eng
	ls := e.locks[l]
	if ls.readers <= 0 {
		panic(fmt.Sprintf("sim: thread %d read-unlocking lock %d with no readers", t.id, l))
	}
	e.sink.ReleaseShared(t.id, l)
	ls.readers--
	if ls.readers == 0 && len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = next.id
		e.makeRunnable(next)
	}
	t.tick()
}

// WithRLock runs f while read-holding l.
func (t *Thread) WithRLock(l event.LockID, f func()) {
	t.RLock(l)
	f()
	t.RUnlock(l)
}

// WithLock runs f while holding l.
func (t *Thread) WithLock(l event.LockID, f func()) {
	t.Lock(l)
	f()
	t.Unlock(l)
}

// ---- Barriers ----

// NewBarrier creates a counting barrier for parties threads.
func (t *Thread) NewBarrier(parties int) event.BarrierID {
	e := t.eng
	e.barriers = append(e.barriers, &barrierState{parties: parties})
	return event.BarrierID(len(e.barriers) - 1)
}

// Barrier blocks until parties threads have arrived at b, then all proceed.
// Arrive is delivered at arrival, Depart after the last arrival, so a
// detector joining clocks at Arrive and absorbing them at Depart sees the
// all-to-all ordering a barrier creates.
func (t *Thread) Barrier(b event.BarrierID) {
	e := t.eng
	bs := e.barriers[b]
	if bs.departing > 0 {
		// The previous generation is still draining its Depart events.
		bs.pending = append(bs.pending, t)
		t.block()
	}
	e.sink.BarrierArrive(t.id, b)
	t.tick()
	if len(bs.arrived)+1 < bs.parties {
		bs.arrived = append(bs.arrived, t)
		t.block()
	} else {
		for _, w := range bs.arrived {
			e.makeRunnable(w)
		}
		bs.arrived = bs.arrived[:0]
		bs.departing = bs.parties
	}
	e.sink.BarrierDepart(t.id, b)
	t.tick()
	bs.departing--
	if bs.departing == 0 {
		for _, w := range bs.pending {
			e.makeRunnable(w)
		}
		bs.pending = bs.pending[:0]
	}
}

// ---- Condition variables ----

// NewCond creates a condition variable.
func (t *Thread) NewCond() int {
	e := t.eng
	e.conds = append(e.conds, &condState{})
	return len(e.conds) - 1
}

// Wait atomically releases l and blocks until signalled, then reacquires l
// before returning — pthread_cond_wait semantics. As in pthreads, the
// happens-before edge to the waker is established by the mutex, not the
// condition variable itself.
func (t *Thread) Wait(c int, l event.LockID) {
	e := t.eng
	cs := e.conds[c]
	e.unlockForWait(t, l)
	cs.waiters = append(cs.waiters, &condWaiter{t: t, l: l})
	t.block()
	t.Lock(l)
}

// unlockForWait releases l on behalf of a waiting thread (shared with
// Unlock, but without charging the caller's quantum mid-wait).
func (e *Engine) unlockForWait(t *Thread, l event.LockID) {
	ls := e.locks[l]
	if ls.owner != t.id {
		panic(fmt.Sprintf("sim: thread %d waiting on lock %d owned by %d", t.id, l, ls.owner))
	}
	e.sink.Release(t.id, l)
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = next.id
		e.makeRunnable(next)
	} else {
		ls.owner = vc.NoTID
	}
}

// Signal wakes one waiter of c, if any.
func (t *Thread) Signal(c int) {
	e := t.eng
	cs := e.conds[c]
	if len(cs.waiters) > 0 {
		w := cs.waiters[0]
		cs.waiters = cs.waiters[1:]
		e.makeRunnable(w.t)
	}
	t.tick()
}

// Broadcast wakes every waiter of c.
func (t *Thread) Broadcast(c int) {
	e := t.eng
	cs := e.conds[c]
	for _, w := range cs.waiters {
		e.makeRunnable(w.t)
	}
	cs.waiters = cs.waiters[:0]
	t.tick()
}

// ---- Heap ----

// Malloc allocates size bytes of virtual heap and returns the address.
func (t *Thread) Malloc(size uint64) uint64 {
	addr := t.eng.heap.alloc(size)
	t.eng.sink.Malloc(t.id, addr, size)
	t.tick()
	return addr
}

// Free releases an allocation made by Malloc.
func (t *Thread) Free(addr uint64) {
	size := t.eng.heap.free(addr)
	t.eng.sink.Free(t.id, addr, size)
	t.tick()
}

// heapAlloc is a bump allocator with exact-size free lists, enough reuse to
// exercise shadow-state cleanup the way a real allocator would.
type heapAlloc struct {
	next      uint64
	freeLists map[uint64][]uint64
	live      map[uint64]uint64

	liveBytes  uint64
	peakBytes  uint64
	allocBytes uint64
	mallocs    uint64
	frees      uint64
}

// heapBase leaves low addresses free so workloads can also use small
// hand-placed "global" addresses without colliding with the heap.
const heapBase = 1 << 20

func (h *heapAlloc) init() {
	h.next = heapBase
	h.freeLists = make(map[uint64][]uint64)
	h.live = make(map[uint64]uint64)
}

func roundSize(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + 7) &^ 7
}

func (h *heapAlloc) alloc(size uint64) uint64 {
	rs := roundSize(size)
	var addr uint64
	if fl := h.freeLists[rs]; len(fl) > 0 {
		addr = fl[len(fl)-1]
		h.freeLists[rs] = fl[:len(fl)-1]
	} else {
		addr = h.next
		h.next += rs
	}
	h.live[addr] = rs
	h.liveBytes += rs
	h.allocBytes += rs
	h.mallocs++
	if h.liveBytes > h.peakBytes {
		h.peakBytes = h.liveBytes
	}
	return addr
}

func (h *heapAlloc) free(addr uint64) uint64 {
	rs, ok := h.live[addr]
	if !ok {
		panic(fmt.Sprintf("sim: free of unallocated address %#x", addr))
	}
	delete(h.live, addr)
	h.liveBytes -= rs
	h.frees++
	h.freeLists[rs] = append(h.freeLists[rs], addr)
	return rs
}
