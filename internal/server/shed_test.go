package server

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pipeline"
)

// shedSession builds a minimal session around a real (idle) pipeline so
// shedRecords can read its occupancy.
func shedSession(t *testing.T) *session {
	t.Helper()
	pl := pipeline.New(pipeline.Options{Workers: 1})
	t.Cleanup(func() { pl.Wait() })
	return &session{pl: pl}
}

// Sync and heap records must survive shedding unconditionally: dropping a
// happens-before edge would corrupt every clock downstream and let the
// detector invent races. Only hot-site read/write records are sheddable.
func TestShedNeverDropsSync(t *testing.T) {
	// Negative watermarks force the latch on (occupancy 0 >= -2) and keep
	// it on (0 < -1 is false), isolating the compaction logic.
	srv := &Server{opts: Options{ShedHighWater: -2, ShedLowWater: -1, ShedHotSite: 2}}
	sess := shedSession(t)
	c := &event.Cols{}
	var want []event.Rec // the survivors, in stream order
	syncOps := []event.Op{
		event.OpAcquire, event.OpRelease, event.OpFork, event.OpJoin,
		event.OpBarrierArrive, event.OpMalloc, event.OpFree,
		event.OpChanSend, event.OpChanRecv, event.OpWGAdd, event.OpWGWait,
	}
	for i := 0; i < 10; i++ {
		acc := event.Rec{Op: event.OpWrite, Tid: 1, PC: 7, Addr: uint64(i), Size: 4, Seq: uint64(2*i + 1)}
		sync := event.Rec{Op: syncOps[i%len(syncOps)], Tid: 2, Aux: uint64(i), Seq: uint64(2*i + 2)}
		c.Append(acc)
		c.Append(sync)
		if i < 2 {
			want = append(want, acc)
		}
		want = append(want, sync)
	}
	shed := srv.shedRecords(sess, c)
	if shed != 8 {
		t.Fatalf("shed %d records, want 8 (site 7 keeps its first 2 accesses)", shed)
	}
	syncKept, accKept := 0, 0
	for _, op := range c.Ops {
		if op == event.OpRead || op == event.OpWrite {
			accKept++
		} else {
			syncKept++
		}
	}
	if c.Len() == len(want) {
		for i := range want {
			if got := c.Rec(i); got != want[i] {
				t.Errorf("survivor %d = %+v, want %+v (compaction must keep every column in stream order)", i, got, want[i])
			}
		}
	}
	if syncKept != 10 {
		t.Errorf("sync records shed: %d/10 survived", syncKept)
	}
	if accKept != 2 {
		t.Errorf("kept %d accesses at the hot site, want ShedHotSite = 2", accKept)
	}
	if sess.shed != 0 {
		t.Errorf("shedRecords must not touch sess.shed (dispatch tallies it): %d", sess.shed)
	}
}

// Below the high watermark nothing is shed, however hot the sites: the
// shedder is a pressure valve, not a sampler.
func TestShedIdleQueuesDropNothing(t *testing.T) {
	srv := &Server{opts: Options{ShedHighWater: 0.5, ShedLowWater: 0.25, ShedHotSite: 1}}
	sess := shedSession(t)
	c := &event.Cols{}
	for i := 0; i < 100; i++ {
		c.Append(event.Rec{Op: event.OpWrite, PC: 3, Addr: 0x100})
	}
	if shed := srv.shedRecords(sess, c); shed != 0 {
		t.Fatalf("idle pipeline shed %d records", shed)
	}
	if c.Len() != 100 {
		t.Fatalf("batch compacted while not shedding: %d/100", c.Len())
	}
	if sess.shedding {
		t.Fatal("latch set with occupancy 0 below the high watermark")
	}
}

// The latch releases when occupancy falls below the low watermark: the
// same batch shape stops being shed once pressure clears.
func TestShedLatchReleases(t *testing.T) {
	srv := &Server{opts: Options{ShedHighWater: -1, ShedLowWater: 0.5, ShedHotSite: 1}}
	sess := shedSession(t)
	c := &event.Cols{}
	for i := 0; i < 10; i++ {
		c.Append(event.Rec{Op: event.OpWrite, PC: 9, Addr: 0x40})
	}
	if shed := srv.shedRecords(sess, c); shed != 9 {
		t.Fatalf("latched shedder dropped %d, want 9", shed)
	}
	if !sess.shedding {
		t.Fatal("latch not set at occupancy >= high watermark")
	}
	// Raise the high watermark out of reach: occupancy 0 is now below the
	// low watermark, so the next batch unlatches and keeps everything.
	srv.opts.ShedHighWater = 2
	c2 := &event.Cols{}
	for i := 0; i < 10; i++ {
		c2.Append(event.Rec{Op: event.OpWrite, PC: 9, Addr: 0x40})
	}
	if shed := srv.shedRecords(sess, c2); shed != 0 {
		t.Fatalf("unlatched shedder dropped %d", shed)
	}
	if sess.shedding {
		t.Fatal("latch did not release below the low watermark")
	}
}
