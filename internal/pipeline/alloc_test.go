// Allocation guard for the worker apply loop: after warm-up, applying a
// batch of records to a shard detector — the exact body of worker.run —
// must not allocate. Batch transport is already pooled (event.GetCols /
// PutCols); this pins the detection side of the loop.
package pipeline

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/vc"
)

func TestApplyLoopSteadyStateZeroAlloc(t *testing.T) {
	d := detector.New(detector.Config{Granularity: detector.Dynamic})
	d.Fork(0, 1)

	// One lock-ordered ping-pong cycle over a 256-byte range, as a record
	// batch: the workload shape the router ships to workers.
	var recs []event.Rec
	for _, tid := range []vc.TID{0, 1} {
		recs = append(recs, event.Rec{Op: event.OpAcquire, Tid: tid, Aux: 3})
		for a := uint64(0); a < 256; a += 8 {
			recs = append(recs, event.Rec{Op: event.OpWrite, Tid: tid, Addr: 0x9000 + a, Size: 8, PC: 21})
			recs = append(recs, event.Rec{Op: event.OpRead, Tid: tid, Addr: 0x9000 + a, Size: 8, PC: 22})
		}
		recs = append(recs, event.Rec{Op: event.OpRelease, Tid: tid, Aux: 3})
	}

	apply := func() {
		for i := range recs {
			r := &recs[i]
			before := len(d.Races())
			event.ApplyRec(d, r)
			if after := d.Races(); len(after) > before {
				t.Fatalf("unexpected race at rec %d", i)
			}
		}
	}
	apply() // warm shadow entries, clocks, bitmaps, freelists
	apply()
	if got := testing.AllocsPerRun(20, apply); got != 0 {
		t.Fatalf("apply loop steady state: %v allocs/run, want 0", got)
	}
}
