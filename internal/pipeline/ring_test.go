package pipeline

import (
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/telemetry"
)

// marker builds a one-record batch tagged with seq, so transfer order
// and identity are checkable on the consumer side.
func marker(seq uint64) *event.Cols {
	c := event.GetCols()
	c.Append(event.Rec{Op: event.OpRead, Seq: seq})
	return c
}

// TestRingWrapAround pushes far more batches than the ring holds through a
// tiny ring, asserting every batch arrives exactly once, in order, across
// many cursor wrap-arounds.
func TestRingWrapAround(t *testing.T) {
	r := newRing(4, nil, nil)
	if r.capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", r.capacity())
	}
	const n = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= n; i++ {
			r.send(marker(i))
		}
		r.close()
	}()
	var got uint64
	for {
		c, ok := r.recv()
		if !ok {
			break
		}
		got++
		if want := got; c.Seqs[0] != want {
			t.Fatalf("batch %d carried seq %d (reordered or duplicated)", want, c.Seqs[0])
		}
		event.PutCols(c)
	}
	wg.Wait()
	if got != n {
		t.Fatalf("received %d of %d batches", got, n)
	}
	if _, ok := r.recv(); ok {
		t.Fatal("recv after drain on a closed ring returned a batch")
	}
}

// TestRingDepthRounding pins the power-of-two capacity rounding.
func TestRingDepthRounding(t *testing.T) {
	for depth, want := range map[int]int{1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1000: 1024} {
		if got := newRing(depth, nil, nil).capacity(); got != want {
			t.Errorf("newRing(%d).capacity() = %d, want %d", depth, got, want)
		}
	}
}

// TestRingProducerPark forces the full-ring path: a consumer that sleeps
// before draining guarantees the producer exhausts its spin budget and
// parks, and the park counter proves the slow path ran.
func TestRingProducerPark(t *testing.T) {
	reg := telemetry.New()
	parks := reg.Counter("parks", "", telemetry.Labels{"side": "producer"})
	r := newRing(2, parks, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond) // let the producer fill and park
		for {
			c, ok := r.recv()
			if !ok {
				return
			}
			event.PutCols(c)
			time.Sleep(time.Millisecond) // keep the ring full a few rounds
		}
	}()
	for i := uint64(1); i <= 16; i++ {
		r.send(marker(i))
	}
	r.close()
	wg.Wait()
	if parks.Load() == 0 {
		t.Fatal("producer never parked against a stalled consumer")
	}
}

// TestRingConsumerPark forces the empty-ring path: a producer that sleeps
// between sends starves the consumer past its spin budget.
func TestRingConsumerPark(t *testing.T) {
	reg := telemetry.New()
	parks := reg.Counter("parks", "", telemetry.Labels{"side": "consumer"})
	r := newRing(8, nil, parks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= 4; i++ {
			time.Sleep(20 * time.Millisecond)
			r.send(marker(i))
		}
		r.close()
	}()
	var got int
	for {
		c, ok := r.recv()
		if !ok {
			break
		}
		got++
		event.PutCols(c)
	}
	wg.Wait()
	if got != 4 {
		t.Fatalf("received %d of 4 batches", got)
	}
	if parks.Load() == 0 {
		t.Fatal("consumer never parked against a slow producer")
	}
}

// TestRingCloseWhileFull closes a ring at capacity before the consumer
// starts: the consumer must drain every queued batch and then observe the
// close, even from a parked state.
func TestRingCloseWhileFull(t *testing.T) {
	r := newRing(4, nil, nil)
	for i := uint64(1); i <= 4; i++ {
		r.send(marker(i))
	}
	r.close()
	for i := uint64(1); i <= 4; i++ {
		c, ok := r.recv()
		if !ok {
			t.Fatalf("close hid batch %d", i)
		}
		if c.Seqs[0] != i {
			t.Fatalf("batch %d carried seq %d", i, c.Seqs[0])
		}
		event.PutCols(c)
	}
	if _, ok := r.recv(); ok {
		t.Fatal("drained closed ring still produced a batch")
	}
}

// TestRingCloseWakesParkedConsumer parks the consumer on an empty ring and
// then closes it; the consumer must wake and exit rather than hang.
func TestRingCloseWakesParkedConsumer(t *testing.T) {
	r := newRing(4, nil, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := r.recv(); ok {
			t.Error("recv on an empty closed ring returned a batch")
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the consumer park
	r.close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke from close")
	}
}

// TestRingStress hammers one ring from concurrent producer and consumer
// goroutines with randomized stalls on both sides — the park/unpark
// protocol's Dekker handshake is what -race (and the 5s timeout) checks.
func TestRingStress(t *testing.T) {
	reg := telemetry.New()
	pp := reg.Counter("parks", "", telemetry.Labels{"side": "producer"})
	cp := reg.Counter("parks", "", telemetry.Labels{"side": "consumer"})
	r := newRing(2, pp, cp)
	const n = 20000
	done := make(chan uint64, 1)
	go func() {
		var got, last uint64
		for {
			c, ok := r.recv()
			if !ok {
				done <- got
				return
			}
			if s := c.Seqs[0]; s != last+1 {
				t.Errorf("seq %d after %d", s, last)
				done <- got
				return
			} else {
				last = s
			}
			got++
			event.PutCols(c)
			if got%97 == 0 {
				time.Sleep(time.Microsecond) // periodic consumer stall
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		r.send(marker(i))
		if i%89 == 0 {
			time.Sleep(time.Microsecond) // periodic producer stall
		}
	}
	r.close()
	select {
	case got := <-done:
		if got != n {
			t.Fatalf("received %d of %d batches", got, n)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged (lost wakeup?)")
	}
	t.Logf("parks: producer=%d consumer=%d", pp.Load(), cp.Load())
}

// TestRingZeroAlloc pins that the ring's steady state allocates nothing:
// the hand-off is a slot store and two atomic cursor updates.
func TestRingZeroAlloc(t *testing.T) {
	r := newRing(8, nil, nil)
	c := event.GetCols()
	defer event.PutCols(c)
	if got := testing.AllocsPerRun(1000, func() {
		r.send(c)
		if _, ok := r.recv(); !ok {
			t.Fatal("recv failed")
		}
	}); got != 0 {
		t.Errorf("ring send+recv: %v allocs/run, want 0", got)
	}
}
