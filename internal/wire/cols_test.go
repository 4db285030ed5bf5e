package wire

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/event"
)

// TestColsDecodeMatchesRecordDecode pins the two v2 decoders to each
// other: the columnar-into-Cols decoder must produce exactly the records
// the record-major decoder does, for every payload shape the encoder emits.
func TestColsDecodeMatchesRecordDecode(t *testing.T) {
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
			c, err := DecodeColumnarCols(payload)
			if err != nil {
				t.Fatalf("cols decode: %v", err)
			}
			defer event.PutCols(c)
			if c.Len() != len(recs) {
				t.Fatalf("decoded %d records, want %d", c.Len(), len(recs))
			}
			for i, want := range recs {
				if got := c.Rec(i); got != want {
					t.Fatalf("record %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestAppendColumnarColsByteIdentical checks the column-major encoder is a
// byte-exact twin of the record-major one: the wire format has a single
// canonical encoding regardless of which in-memory layout produced it.
func TestAppendColumnarColsByteIdentical(t *testing.T) {
	recs := streamRecs(2048)
	c := &event.Cols{}
	for _, r := range recs {
		c.Append(r)
	}
	want := AppendColumnar(nil, recs)
	got := AppendColumnarCols(nil, c)
	if !bytes.Equal(want, got) {
		t.Fatalf("encodings differ: %d vs %d bytes", len(want), len(got))
	}
}

// TestColsDecodeRejectsMalformedAndRewinds drives the cols decoder over
// the same corruption classes as the record decoder's test, with a
// pre-seeded batch: every failure must rewind to the entry length so a
// pooled Cols is never recycled with partial records in it.
func TestColsDecodeRejectsMalformedAndRewinds(t *testing.T) {
	recs := streamRecs(32)
	payload := AppendColumnar(nil, recs)
	sentinel := event.Rec{Op: event.OpWrite, Tid: 9, Addr: 0x999, Size: 1, Seq: 99}
	check := func(t *testing.T, bad []byte) {
		t.Helper()
		c := &event.Cols{}
		c.Append(sentinel)
		if err := DecodeColumnarColsInto(bad, c); err == nil {
			t.Fatal("malformed payload accepted")
		}
		if c.Len() != 1 || c.Rec(0) != sentinel {
			t.Fatalf("failed decode did not rewind: len %d", c.Len())
		}
	}
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(payload); cut++ {
			check(t, payload[:cut])
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		check(t, append(append([]byte{}, payload...), 0))
	})
	t.Run("lying-count", func(t *testing.T) {
		check(t, appendUvarint(nil, 1<<40))
	})
	t.Run("count-mismatch", func(t *testing.T) {
		// Claim 7 records over the column sections of 32: the op run
		// lengths no longer cover the count.
		check(t, append(appendUvarint(nil, 7), payload[1:]...))
	})
	t.Run("bad-op", func(t *testing.T) {
		bad := AppendColumnar(nil, recs[:1])
		bad[1] = byte(MaxOp) + 1
		check(t, bad)
	})
	t.Run("run-overflow", func(t *testing.T) {
		check(t, []byte{1, byte(event.OpRead), 2})
	})
	t.Run("bad-tid", func(t *testing.T) {
		for _, bad := range badTIDPayloads() {
			check(t, bad)
		}
	})
	t.Run("size-overflow", func(t *testing.T) {
		r := []event.Rec{{Op: event.OpRead, Tid: 1, Addr: 8, Size: 4, Seq: 1}}
		good := AppendColumnar(nil, r)
		// Re-encode by hand with a 2^40 size.
		bad := appendUvarint(nil, 1)
		bad = append(bad, byte(event.OpRead))
		bad = appendUvarint(bad, 1)         // op run
		bad = appendUvarint(bad, zigzag(1)) // tid
		bad = appendUvarint(bad, 1)         // tid run
		bad = appendUvarint(bad, zigzag(8)) // addr delta
		bad = appendUvarint(bad, 1<<40)     // size: overflows uint32
		bad = appendUvarint(bad, zigzag(0)) // pc delta
		bad = appendUvarint(bad, zigzag(0)) // aux delta
		bad = appendUvarint(bad, zigzag(1)) // seq delta
		if len(bad) <= len(good) {
			t.Fatal("hand-built payload suspiciously short")
		}
		check(t, bad)
	})
}

// TestDecodeErrorPathsReturnPooledBatches is the pool-leak regression:
// the pooled decode entry point (DecodeColumnarCols) takes a batch from
// the pool on every call and must return it on every error exit. An
// injected stream of truncated and corrupt payloads must leave gets ==
// puts — a leak here slowly bleeds the server's batch pool under a
// misbehaving client.
func TestDecodeErrorPathsReturnPooledBatches(t *testing.T) {
	recs := streamRecs(64)
	columnar := AppendColumnar(nil, recs)
	badOp := append([]byte{}, columnar...)
	badOp[1] = byte(MaxOp) + 1 // the op byte after the one-byte count

	_, _, cg0, cp0 := event.PoolCounts()
	for cut := 0; cut < len(columnar); cut += 7 {
		if _, err := DecodeColumnarCols(columnar[:cut]); err == nil {
			t.Fatalf("truncated columnar payload (%d bytes) accepted", cut)
		}
	}
	for _, bad := range append(badTIDPayloads(), badOp) {
		if _, err := DecodeColumnarCols(bad); err == nil {
			t.Fatalf("corrupt payload accepted: % x", bad)
		}
	}
	_, _, cg1, cp1 := event.PoolCounts()
	if cg1-cg0 != cp1-cp0 {
		t.Errorf("cols pool leak: %d gets vs %d puts across error paths", cg1-cg0, cp1-cp0)
	}

	// A successful decode balances too once the caller returns the batch.
	c, err := DecodeColumnarCols(columnar)
	if err != nil {
		t.Fatal(err)
	}
	event.PutCols(c)
	if _, _, cg2, cp2 := event.PoolCounts(); cg2-cg0 != cp2-cp0 {
		t.Errorf("cols pool imbalance after a successful decode: %d gets vs %d puts", cg2-cg0, cp2-cp0)
	}
}

// TestColsDecodeZeroAlloc pins the ingest hot path: decoding a full
// columnar payload into a warm pooled Cols allocates nothing.
func TestColsDecodeZeroAlloc(t *testing.T) {
	payload := AppendColumnar(nil, streamRecs(event.DefaultBatchSize))
	c := event.GetCols()
	defer event.PutCols(c)
	if err := DecodeColumnarColsInto(payload, c); err != nil { // warm capacity
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		c.Reset()
		if err := DecodeColumnarColsInto(payload, c); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("cols decode allocates %.1f per batch, want 0", avg)
	}
}
