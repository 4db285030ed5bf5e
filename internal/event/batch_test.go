package event

import (
	"fmt"
	"testing"

	"repro/internal/vc"
)

// drive sends one of every event through s.
func drive(s Sink) {
	s.Read(1, 0x100, 4, MakePC(ModuleApp, 7))
	s.Write(2, 0x108, 8, MakePC(ModuleLibc, 9))
	s.Acquire(1, 3)
	s.Release(1, 3)
	s.AcquireShared(2, 4)
	s.ReleaseShared(2, 4)
	s.Fork(0, 5)
	s.Join(0, 5)
	s.BarrierArrive(1, 2)
	s.BarrierDepart(1, 2)
	s.Malloc(2, 0x2000, 64)
	s.Free(2, 0x2000, 64)
}

// TestEncoderRoundTrip checks that encoding an event stream into batches and
// replaying the batches reproduces the stream exactly (observed through the
// Counter sink).
func TestEncoderRoundTrip(t *testing.T) {
	var direct Counter
	drive(&direct)

	var replayed Counter
	var batches []*Batch
	enc := &Encoder{Flush: func(b *Batch) { batches = append(batches, b) }}
	drive(enc)
	enc.Close()

	var total int
	for _, b := range batches {
		total += len(b.Recs)
		for i := range b.Recs {
			ApplyRec(&replayed, &b.Recs[i])
		}
	}
	if total != 12 {
		t.Fatalf("encoded %d records, want 12", total)
	}
	if direct != replayed {
		t.Fatalf("replayed counters differ:\n direct  %+v\n replayed %+v", direct, replayed)
	}
	if enc.Seq() != 12 {
		t.Fatalf("Seq() = %d, want 12", enc.Seq())
	}
}

// TestEncoderSequenceNumbers checks that records carry strictly increasing
// global sequence numbers across batch boundaries.
func TestEncoderSequenceNumbers(t *testing.T) {
	var recs []Rec
	enc := &Encoder{Flush: func(b *Batch) {
		recs = append(recs, b.Recs...)
		PutBatch(b)
	}}
	n := DefaultBatchSize*2 + 17 // force several flushes
	for i := 0; i < n; i++ {
		enc.Read(0, uint64(i), 1, 0)
	}
	enc.Close()
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("rec %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Addr != uint64(i) {
			t.Fatalf("rec %d has addr %d, want %d (pool reuse corrupted a batch?)", i, r.Addr, i)
		}
	}
}

// TestBatchPoolReuse checks that a recycled batch starts empty and at full
// capacity.
func TestBatchPoolReuse(t *testing.T) {
	b := GetBatch()
	for i := 0; i < DefaultBatchSize; i++ {
		b.Append(Rec{Op: OpRead, Addr: uint64(i)})
	}
	if !b.Full() {
		t.Fatal("batch at capacity should report Full")
	}
	PutBatch(b)
	b2 := GetBatch()
	if len(b2.Recs) != 0 {
		t.Fatalf("recycled batch has %d records, want 0", len(b2.Recs))
	}
	if b2.Full() {
		t.Fatal("recycled batch reports Full")
	}
}

// TestApplyRecFieldConventions spot-checks the Op field conventions through
// a recording sink.
func TestApplyRecFieldConventions(t *testing.T) {
	var got []string
	s := recSink{log: &got}
	for _, r := range []Rec{
		{Op: OpFork, Tid: 3, Aux: 9},
		{Op: OpJoin, Tid: 3, Aux: 9},
		{Op: OpFree, Tid: 1, Addr: 0x40, Aux: 16},
	} {
		r := r
		ApplyRec(s, &r)
	}
	want := []string{"fork 3->9", "join 3<-9", "free 1 0x40+16"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

type recSink struct {
	Nop
	log *[]string
}

func (r recSink) Fork(p, c vc.TID) { *r.log = append(*r.log, fmt.Sprintf("fork %d->%d", p, c)) }
func (r recSink) Join(p, c vc.TID) { *r.log = append(*r.log, fmt.Sprintf("join %d<-%d", p, c)) }
func (r recSink) Free(tid vc.TID, addr, size uint64) {
	*r.log = append(*r.log, fmt.Sprintf("free %d %#x+%d", tid, addr, size))
}
