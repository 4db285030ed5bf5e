// Columnar decode into a structure-of-arrays batch (event.Cols): the
// payload is already column-major on the wire, so decoding into columns
// is a straight transpose-free pass — each column section streams into
// one contiguous slice instead of striding across 64-byte Rec structs.
// This is the server's ingest decoder: it hands every decoded Batch
// payload to pipeline.ApplyCols, which routes over the addr column
// and ships column segments to the detection workers.
package wire

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/event"
)

// DecodeColumnarColsInto decodes a columnar payload into c,
// appending to its columns. The payload must parse exactly — the same
// contract as DecodeColumnarInto — and on any error c is rewound to its
// length at entry.
func DecodeColumnarColsInto(payload []byte, c *event.Cols) error {
	r := colReader{p: payload}
	n64, err := r.uvarint()
	if err != nil {
		return err
	}
	if n64 > uint64(len(payload)) {
		// Same bound as DecodeColumnarInto: ≥5 payload bytes per record, so
		// a larger count is a lie and would only inflate the allocation.
		return fmt.Errorf("%w: record count %d exceeds payload length %d", errColumnar, n64, len(payload))
	}
	n := int(n64)
	if n == 0 {
		if r.off != len(payload) {
			return fmt.Errorf("%w: %d trailing bytes", errColumnar, len(payload)-r.off)
		}
		return nil
	}
	base := c.Len()
	c.Ops = slices.Grow(c.Ops, n)[:base+n]
	c.Tids = slices.Grow(c.Tids, n)[:base+n]
	c.Sizes = slices.Grow(c.Sizes, n)[:base+n]
	c.PCs = slices.Grow(c.PCs, n)[:base+n]
	c.Addrs = slices.Grow(c.Addrs, n)[:base+n]
	c.Auxs = slices.Grow(c.Auxs, n)[:base+n]
	c.Seqs = slices.Grow(c.Seqs, n)[:base+n]
	fail := func(err error) error {
		c.Truncate(base)
		return err
	}
	// ops: run length.
	ops := c.Ops[base:]
	for i := 0; i < n; {
		if r.off >= len(r.p) {
			return fail(fmt.Errorf("%w: truncated op column", errColumnar))
		}
		op := event.Op(r.p[r.off])
		r.off++
		if op > MaxOp {
			return fail(fmt.Errorf("%w: unknown op %d", errColumnar, op))
		}
		run, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if run == 0 || run > uint64(n-i) {
			return fail(fmt.Errorf("%w: op run %d overflows %d remaining records", errColumnar, run, n-i))
		}
		for j := 0; j < int(run); j++ {
			ops[i+j] = op
		}
		i += int(run)
	}
	// tids: run length.
	tids := c.Tids[base:]
	for i := 0; i < n; {
		tv, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		tid, err := decodeTID(tv)
		if err != nil {
			return fail(err)
		}
		run, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if run == 0 || run > uint64(n-i) {
			return fail(fmt.Errorf("%w: tid run %d overflows %d remaining records", errColumnar, run, n-i))
		}
		for j := 0; j < int(run); j++ {
			tids[i+j] = tid
		}
		i += int(run)
	}
	// addrs: zigzag delta.
	addrs := c.Addrs[base:]
	var prev uint64
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		addrs[i] = prev
	}
	// sizes.
	sizes := c.Sizes[base:]
	for i := 0; i < n; i++ {
		s, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		if s > 0xffffffff {
			return fail(fmt.Errorf("%w: size %d overflows uint32", errColumnar, s))
		}
		sizes[i] = uint32(s)
	}
	// pcs: zigzag delta.
	pcs := c.PCs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		if prev > 0xffffffff {
			return fail(fmt.Errorf("%w: pc %d overflows uint32", errColumnar, prev))
		}
		pcs[i] = event.PC(prev)
	}
	// aux: zigzag delta.
	auxs := c.Auxs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		if prev > math.MaxInt32 && carriesChild(ops[i]) {
			return fail(fmt.Errorf("%w: child tid %d does not fit a thread id", errColumnar, prev))
		}
		auxs[i] = prev
	}
	// seqs: zigzag delta.
	seqs := c.Seqs[base:]
	prev = 0
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		prev += uint64(unzigzag(d))
		seqs[i] = prev
	}
	if r.off != len(payload) {
		return fail(fmt.Errorf("%w: %d trailing bytes", errColumnar, len(payload)-r.off))
	}
	return nil
}

// DecodeColumnarCols decodes a columnar payload into a pooled columnar
// batch; the caller returns it with event.PutCols. On error the pooled
// batch is returned to its pool here — decode failures never leak.
func DecodeColumnarCols(payload []byte) (*event.Cols, error) {
	c := event.GetCols()
	if err := DecodeColumnarColsInto(payload, c); err != nil {
		event.PutCols(c)
		return nil, err
	}
	return c, nil
}

// AppendColumnarCols appends the columnar encoding of c to dst — the
// column-major twin of AppendColumnar, encoding straight from the column
// slices. The two encoders produce byte-identical payloads for the same
// records.
func AppendColumnarCols(dst []byte, c *event.Cols) []byte {
	n := c.Len()
	dst = appendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	// ops: run length.
	for i := 0; i < n; {
		op := c.Ops[i]
		j := i + 1
		for j < n && c.Ops[j] == op {
			j++
		}
		dst = append(dst, byte(op))
		dst = appendUvarint(dst, uint64(j-i))
		i = j
	}
	// tids: run length.
	for i := 0; i < n; {
		tid := c.Tids[i]
		j := i + 1
		for j < n && c.Tids[j] == tid {
			j++
		}
		dst = appendUvarint(dst, zigzag(int64(tid)))
		dst = appendUvarint(dst, uint64(j-i))
		i = j
	}
	// addrs: zigzag delta.
	var prev uint64
	for _, a := range c.Addrs {
		dst = appendUvarint(dst, zigzag(int64(a-prev)))
		prev = a
	}
	// sizes: plain varint.
	for _, s := range c.Sizes {
		dst = appendUvarint(dst, uint64(s))
	}
	// pcs: zigzag delta.
	prev = 0
	for _, p := range c.PCs {
		dst = appendUvarint(dst, zigzag(int64(uint64(p)-prev)))
		prev = uint64(p)
	}
	// aux: zigzag delta.
	prev = 0
	for _, a := range c.Auxs {
		dst = appendUvarint(dst, zigzag(int64(a-prev)))
		prev = a
	}
	// seqs: zigzag delta.
	prev = 0
	for _, s := range c.Seqs {
		dst = appendUvarint(dst, zigzag(int64(s-prev)))
		prev = s
	}
	return dst
}
