package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vc"
)

// streamRecs builds a batch with the locality shape of a real event
// stream: threads run in scheduler-quantum-long runs, addresses walk in
// small strides, PCs repeat from a small site set, seqs increment by one.
func streamRecs(n int) []event.Rec {
	recs := make([]event.Rec, n)
	addr := uint64(0x10000)
	for i := range recs {
		tid := vc.TID(i / 64 % 4) // quantum of 64 events per thread
		op := event.OpRead
		if i%4 == 0 {
			op = event.OpWrite
		}
		addr += uint64(8 * (i%3 + 1)) // stride-predictable
		recs[i] = event.Rec{
			Op: op, Tid: tid, Addr: addr, Size: 8,
			PC:  event.MakePC(event.ModuleApp, uint32(i%7)),
			Seq: uint64(i + 1),
		}
	}
	return recs
}

func TestColumnarRoundTrip(t *testing.T) {
	cases := map[string][]event.Rec{
		"empty":  nil,
		"single": {{Op: event.OpWrite, Tid: 3, Addr: 0xdeadbeef, Size: 4, PC: 17, Seq: 1}},
		"stream": streamRecs(2048),
		"extremes": {
			{Op: event.OpMalloc, Tid: 0, Addr: math.MaxUint64, Aux: math.MaxUint64, Seq: math.MaxUint64},
			{Op: event.OpFree, Tid: math.MaxInt32, Addr: 0, Aux: 0, Seq: 0},
			{Op: event.OpFork, Tid: 1, Aux: math.MaxInt32, Seq: 1},
			{Op: event.OpRead, Tid: 0, Addr: 1, Size: math.MaxUint32, PC: math.MaxUint32, Seq: 9},
		},
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			payload := AppendColumnar(nil, recs)
			var got event.Batch
			if err := DecodeColumnarInto(payload, &got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got.Recs) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got.Recs), len(recs))
			}
			if len(recs) > 0 && !reflect.DeepEqual(got.Recs, recs) {
				t.Fatalf("round trip mismatch")
			}
		})
	}
}

func TestColumnarFrameRoundTrip(t *testing.T) {
	b := &event.Batch{Recs: streamRecs(500)}
	frame := AppendBatchFrame(nil, Header{Session: 42, Seq: 9}, b)
	h, payload, err := NewReader(bytes.NewReader(frame), 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeBatch || h.Session != 42 || h.Seq != 9 {
		t.Fatalf("header mangled: %+v", h)
	}
	var got event.Batch
	if err := DecodeColumnarInto(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recs, b.Recs) {
		t.Fatal("frame round trip mismatch")
	}
}

// TestColumnarRejectsMalformed drives the decoder over targeted
// corruptions; none may decode, and none may panic.
func TestColumnarRejectsMalformed(t *testing.T) {
	recs := streamRecs(32)
	payload := AppendColumnar(nil, recs)

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(payload); cut++ {
			var b event.Batch
			if err := DecodeColumnarInto(payload[:cut], &b); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(payload))
			}
			if len(b.Recs) != 0 {
				t.Fatalf("failed decode left %d partial records", len(b.Recs))
			}
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		var b event.Batch
		if err := DecodeColumnarInto(append(append([]byte{}, payload...), 0), &b); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("lying-count", func(t *testing.T) {
		var b event.Batch
		// Claim 2^40 records in a short payload: must be rejected before
		// any allocation is sized from the count.
		lie := appendUvarint(nil, 1<<40)
		if err := DecodeColumnarInto(lie, &b); err == nil {
			t.Fatal("absurd record count accepted")
		}
	})
	t.Run("bad-op", func(t *testing.T) {
		bad := AppendColumnar(nil, recs[:1])
		// Payload: count varint (1 byte) then the op byte.
		bad[1] = byte(MaxOp) + 1
		var b event.Batch
		if err := DecodeColumnarInto(bad, &b); err == nil {
			t.Fatal("unknown op accepted")
		}
	})
	t.Run("run-overflow", func(t *testing.T) {
		// count=1, op run claims 2 records.
		bad := []byte{1, byte(event.OpRead), 2}
		var b event.Batch
		if err := DecodeColumnarInto(bad, &b); err == nil {
			t.Fatal("op run past record count accepted")
		}
	})
	t.Run("bad-tid", func(t *testing.T) {
		for _, bad := range badTIDPayloads() {
			var b event.Batch
			if err := DecodeColumnarInto(bad, &b); err == nil {
				t.Fatalf("out-of-range thread id accepted: % x", bad)
			}
			if len(b.Recs) != 0 {
				t.Fatalf("failed decode left %d partial records", len(b.Recs))
			}
		}
	})
}

// badTIDPayloads returns well-formed payloads that name a thread id
// vc.TID cannot hold: negative and past MaxInt32 in the tid column, and
// the same two as the child tid a fork or join carries in Aux.
func badTIDPayloads() [][]byte {
	var out [][]byte
	for _, tid := range []int64{-5, math.MinInt32, math.MaxInt32 + 1} {
		p := appendUvarint(nil, 1)
		p = append(p, byte(event.OpRead))
		p = appendUvarint(p, 1)           // op run
		p = appendUvarint(p, zigzag(tid)) // tid
		p = appendUvarint(p, 1)           // tid run
		p = appendUvarint(p, zigzag(8))   // addr delta
		p = appendUvarint(p, 4)           // size
		p = appendUvarint(p, zigzag(0))   // pc delta
		p = appendUvarint(p, zigzag(0))   // aux delta
		p = appendUvarint(p, zigzag(1))   // seq delta
		out = append(out, p)
	}
	for _, op := range []event.Op{event.OpFork, event.OpJoin} {
		for _, child := range []uint64{math.MaxInt32 + 1, math.MaxUint64 - 4} {
			out = append(out, AppendColumnar(nil, []event.Rec{{Op: op, Tid: 0, Aux: child, Seq: 1}}))
		}
	}
	return out
}

// TestColumnarZeroAlloc pins the codec's steady-state allocation budget:
// with reused buffers and pooled batches, encode and decode of a full
// batch allocate nothing.
func TestColumnarZeroAlloc(t *testing.T) {
	recs := streamRecs(event.DefaultBatchSize)
	src := &event.Batch{Recs: recs}
	buf := AppendBatchFrame(nil, Header{Session: 1}, src)
	payload := append([]byte(nil), buf[HeaderSize:]...)
	dst := event.GetBatch()
	defer event.PutBatch(dst)

	if got := testing.AllocsPerRun(50, func() {
		buf = AppendBatchFrame(buf[:0], Header{Session: 1}, src)
	}); got != 0 {
		t.Errorf("columnar encode: %v allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		dst.Recs = dst.Recs[:0]
		if err := DecodeColumnarInto(payload, dst); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("columnar decode: %v allocs/run, want 0", got)
	}
}

// MaxColumnarBytesPerRecord is the committed regression threshold for the
// columnar codec on a locality-typical stream (CI fails if the encoding
// regresses above it). A packed record costs a fixed 37 bytes (RecSize);
// the columnar codec's budget is ≤ 7 — comfortably past the ≥4×
// reduction this transport promises, with headroom over the ~4.5 B/record
// the current encoder achieves so byte-level tweaks don't flake the gate.
const MaxColumnarBytesPerRecord = 7.0

func TestColumnarBytesPerRecordThreshold(t *testing.T) {
	recs := streamRecs(event.DefaultBatchSize)
	payload := AppendColumnar(nil, recs)
	got := float64(len(payload)) / float64(len(recs))
	t.Logf("columnar: %.2f bytes/record (packed: %d)", got, RecSize)
	if got > MaxColumnarBytesPerRecord {
		t.Fatalf("columnar codec regressed to %.2f bytes/record on the locality stream, budget %.1f",
			got, MaxColumnarBytesPerRecord)
	}
	if ratio := float64(RecSize) / got; ratio < 4 {
		t.Fatalf("compression vs packed is %.1fx, want >= 4x", ratio)
	}
}

// burstRecs builds a deterministic batch of n records shaped like a real
// instrumented execution rather than white noise: threads run in
// scheduling bursts of random length (runs of equal tids, chosen at random
// from eight), each burst walks one buffer with a small fixed stride from
// a hot loop PC, a quarter of bursts jump to a fresh buffer, PC and
// element width, and sequence numbers increase monotonically. Unlike
// streamRecs's fixed round-robin quantum, the tid and address columns
// here see irregular switches.
func burstRecs(n int, seed int64) []event.Rec {
	rng := rand.New(rand.NewSource(seed))
	const threads = 8
	type cursor struct {
		addr   uint64
		pc     event.PC
		stride uint64
		size   uint32
	}
	cur := make([]cursor, threads)
	for t := range cur {
		cur[t] = cursor{
			addr:   0x10000 + uint64(t)<<20,
			pc:     event.PC(0x400000 + rng.Intn(64)*4),
			stride: 4,
			size:   4,
		}
	}
	recs := make([]event.Rec, n)
	tid, left := 0, 0
	for i := range recs {
		if left == 0 {
			tid = rng.Intn(threads)
			left = 16 + rng.Intn(48)
			if rng.Intn(4) == 0 {
				c := &cur[tid]
				c.addr = 0x10000 + uint64(rng.Intn(1<<12))<<8
				c.pc = event.PC(0x400000 + rng.Intn(64)*4)
				if rng.Intn(2) == 0 {
					c.stride, c.size = 8, 8
				} else {
					c.stride, c.size = 4, 4
				}
			}
		}
		left--
		c := &cur[tid]
		op := event.OpRead
		if i%3 == 0 {
			op = event.OpWrite
		}
		recs[i] = event.Rec{
			Op: op, Tid: vc.TID(tid), Addr: c.addr,
			Size: c.size, PC: c.pc, Seq: uint64(i),
		}
		c.addr += c.stride
	}
	return recs
}

// TestColumnarFrameCompressionOnBurstStream pins the transport's ≥4×
// promise on whole frames: at the default batch size, a columnar frame of
// the burst stream (header included) must be at least 4× smaller than the
// same batch framed as packed records (HeaderSize + n × RecSize).
func TestColumnarFrameCompressionOnBurstStream(t *testing.T) {
	n := event.DefaultBatchSize
	frame := AppendBatchFrame(nil, Header{Session: 1}, &event.Batch{Recs: burstRecs(n, int64(n))})
	packed := HeaderSize + n*RecSize
	t.Logf("columnar frame %d B vs packed %d B (%.2f B/event)", len(frame), packed, float64(len(frame))/float64(n))
	if 4*len(frame) > packed {
		t.Errorf("columnar frame %d B vs packed %d B: less than the promised 4x", len(frame), packed)
	}
}
