// Tests and benchmarks for the free path (DropRange): large frees, the
// hole-merge ownership pattern, and the generation stamp that dedups the
// collected nodes.
package dyngran

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/vc"
)

// TestNodeSize pins the node at one 64-byte cache line: the DropRange
// generation stamp lives in what was tail padding.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 64", got)
	}
}

const largeFree = 64 << 10 // bytes

// buildLargeRange fills [base, base+largeFree) with word nodes, except that
// every 16th block holds the hole-merge pattern instead: two pieces merged
// around an interior hole that a third node fills afterwards.
func buildLargeRange(p *Plane, base uint64) {
	for blk := base; blk < base+largeFree; blk += 128 {
		if (blk-base)/128%16 == 0 {
			a := p.NewNode(blk, blk+8, Init)
			a.W = vc.MakeEpoch(0, 1)
			b := p.NewNode(blk+16, blk+24, Init)
			b.W = vc.MakeEpoch(0, 1)
			p.Merge(a, b)
			mid := p.NewNode(blk+8, blk+16, Private)
			mid.W = vc.MakeEpoch(1, 1)
			for a := blk + 24; a < blk+128; a += 4 {
				p.NewNode(a, a+4, Private).W = vc.MakeEpoch(0, 2)
			}
			continue
		}
		for a := blk; a < blk+128; a += 4 {
			p.NewNode(a, a+4, Private).W = vc.MakeEpoch(0, 2)
		}
	}
}

// checkFreelist asserts that no node sits on the freelist twice and that
// every node ever allocated is back on it.
func checkFreelist(t *testing.T, p *Plane) {
	t.Helper()
	seen := make(map[*Node]bool, len(p.free))
	for _, n := range p.free {
		if seen[n] {
			t.Fatalf("node %p on the freelist twice", n)
		}
		seen[n] = true
		if *n != (Node{}) {
			t.Fatalf("freelist node %p not zeroed: %+v", n, *n)
		}
	}
	if distinct := p.St.NodeAllocs - p.St.NodeRecycles; uint64(len(p.free)) != distinct {
		t.Fatalf("freelist holds %d nodes, %d distinct nodes were allocated", len(p.free), distinct)
	}
}

// checkEmpty asserts that node accounting returned to zero and that no
// shadow entry is left.
func checkEmpty(t *testing.T, p *Plane) {
	t.Helper()
	if st := p.St; st.NodesCur != 0 || st.VCBytesCur != 0 || st.LiveLocs != 0 {
		t.Fatalf("after full drop: NodesCur %d VCBytesCur %d LiveLocs %d, want 0",
			st.NodesCur, st.VCBytesCur, st.LiveLocs)
	}
	if p.Tab.Entries() != 0 {
		t.Fatalf("after full drop: %d shadow entries, want 0", p.Tab.Entries())
	}
}

// TestDropRangeLarge frees a 64 KiB range of word nodes interleaved with
// hole-merge blocks in one call, then again after rebuilding from the
// freelist: accounting must return exactly to zero and every node must be
// back on the freelist exactly once.
func TestDropRangeLarge(t *testing.T) {
	p, _ := newWritePlane()
	const base = 0x100000
	for round := 0; round < 2; round++ {
		buildLargeRange(p, base)
		p.DropRange(base, base+largeFree)
		checkEmpty(t, p)
		checkFreelist(t, p)
	}
	if p.St.NodeRecycles == 0 {
		t.Fatal("second round did not recycle nodes")
	}
}

// TestDropRangeLargePieces frees the same range in uneven pieces whose
// boundaries cut through merged nodes and holes, so nodes straddle the
// boundaries and survive several calls with older stamps.
func TestDropRangeLargePieces(t *testing.T) {
	p, _ := newWritePlane()
	const base = 0x100000
	buildLargeRange(p, base)
	for lo := uint64(base); lo < base+largeFree; {
		hi := lo + 4 + 12*((lo-base)/4%7)
		if hi > base+largeFree {
			hi = base + largeFree
		}
		p.DropRange(lo, hi)
		lo = hi
	}
	checkEmpty(t, p)
	checkFreelist(t, p)
}

// TestDropRangeGenerationWrap runs DropRange across the 2^32 wrap of the
// plane generation. A node that survived an earlier call keeps that call's
// stamp; if the wrap landed on that value without resetting stamps, the
// node would be taken as already collected and leak.
func TestDropRangeGenerationWrap(t *testing.T) {
	p, _ := newWritePlane()
	n := p.NewNode(0x100, 0x120, Init)
	n.W = vc.MakeEpoch(0, 1)
	p.DropRange(0x100, 0x104) // n survives, shrunk, stamped 1
	if n.gen != 1 || p.gen != 1 {
		t.Fatalf("stamp %d, generation %d; want 1, 1", n.gen, p.gen)
	}
	p.gen = math.MaxUint32    // n's stale stamp 1 is the value the wrap lands on
	p.DropRange(0x104, 0x120) // wraps: must reset n's stamp and collect it
	if p.gen != 1 {
		t.Fatalf("generation after wrap %d, want 1", p.gen)
	}
	if p.Tab.Get(0x110) != nil {
		t.Fatal("slot survived the drop")
	}
	checkEmpty(t, p)
	checkFreelist(t, p)
}

// TestDropRangeSteadyStateAllocs pins the zero-allocation free path: once
// the freelists are warm, rebuilding and dropping a large range touches the
// Go heap not at all.
func TestDropRangeSteadyStateAllocs(t *testing.T) {
	p, _ := newWritePlane()
	const base = 0x100000
	buildLargeRange(p, base)
	p.DropRange(base, base+largeFree)
	if allocs := testing.AllocsPerRun(5, func() {
		buildLargeRange(p, base)
		p.DropRange(base, base+largeFree)
	}); allocs != 0 {
		t.Fatalf("build+drop allocates %.0f times per run, want 0", allocs)
	}
}

// BenchmarkDropRange frees a range of n word nodes in one call (the build
// is excluded from the timing). The cost per node is flat in n: each slot
// is visited once and its node's membership is an O(1) stamp check.
func BenchmarkDropRange(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			p, _ := newWritePlane()
			const base = 0x100000
			hi := base + uint64(n)*4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for a := uint64(base); a < hi; a += 4 {
					p.NewNode(a, a+4, Private)
				}
				b.StartTimer()
				p.DropRange(base, hi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
