package sampling

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/workloads"
)

func TestColdRegionsFullyAnalyzed(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 10})
	for i := 0; i < 10; i++ {
		s.Read(0, uint64(i), 4, 5)
	}
	if c.Reads != 10 {
		t.Errorf("first burst must be fully forwarded: %d", c.Reads)
	}
}

func TestHotRegionsDecay(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 4, Decay: 2})
	for i := 0; i < 100000; i++ {
		s.Write(0, uint64(i%256), 4, 9) // bounded range: regions go hot
	}
	if s.Rate() > 0.2 {
		t.Errorf("hot region rate too high: %.3f", s.Rate())
	}
	if s.Rate() < 0.001 {
		t.Errorf("rate fell below the floor: %.5f", s.Rate())
	}
	if f, _ := s.Counts(); c.Writes != f {
		t.Errorf("forwarded mismatch: %d vs %d", c.Writes, f)
	}
}

func TestPerRegionIndependence(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 8})
	// Heat up region 1.
	for i := 0; i < 10000; i++ {
		s.Write(0, uint64(i), 4, 1)
	}
	before := c.Writes
	// A cold region still gets its full first burst.
	for i := 0; i < 8; i++ {
		s.Write(0, uint64(i), 4, 2)
	}
	if c.Writes-before != 8 {
		t.Errorf("cold region throttled by a hot one: %d", c.Writes-before)
	}
}

func TestSyncAlwaysForwarded(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{})
	for i := 0; i < 100; i++ {
		s.Acquire(0, 1)
		s.Release(0, 1)
	}
	if c.Acquires != 100 || c.Releases != 100 {
		t.Error("synchronization must never be sampled away")
	}
}

// Sampling must never invent races: wrapping FastTrack can only shrink the
// report set (the synchronization skeleton stays exact).
func TestSamplingNeverInventsRaces(t *testing.T) {
	for _, name := range []string{"ffmpeg", "hmmsearch", "pbzip2"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		full := detector.New(detector.Config{Granularity: detector.Byte})
		sim.Run(spec.Program(), full, sim.Options{Seed: 42})
		fullAddrs := map[uint64]bool{}
		for _, r := range full.Races() {
			fullAddrs[r.Addr] = true
		}

		under := detector.New(detector.Config{Granularity: detector.Byte})
		sampled := New(under, Options{BurstLength: 8, Decay: 4})
		sim.Run(spec.Program(), sampled, sim.Options{Seed: 42})
		for _, r := range under.Races() {
			if !fullAddrs[r.Addr] {
				t.Errorf("%s: sampling invented a race at %#x", name, r.Addr)
			}
		}
		_, skipped := sampled.Counts()
		if sampled.Rate() >= 1 && skipped == 0 && name != "hmmsearch" {
			t.Errorf("%s: sampler never throttled (rate %.3f)", name, sampled.Rate())
		}
	}
}

// The cold-region hypothesis in action: a race in rarely executed code is
// still caught at a low overall sampling rate.
func TestColdRaceStillCaught(t *testing.T) {
	prog := sim.Program{Name: "coldrace", Main: func(m *sim.Thread) {
		a := m.Go(func(w *sim.Thread) {
			w.At(1) // hot loop
			for i := 0; i < 50000; i++ {
				w.Write(0x1000+uint64(i%64)*4, 4)
			}
			w.At(2) // cold racy site
			w.Write(0x9000, 4)
		})
		b := m.Go(func(w *sim.Thread) {
			w.At(1)
			for i := 0; i < 50000; i++ {
				w.Write(0x2000+uint64(i%64)*4, 4)
			}
			w.At(3) // cold racy site
			w.Write(0x9000, 4)
		})
		m.Join(a)
		m.Join(b)
	}}
	under := detector.New(detector.Config{Granularity: detector.Byte})
	s := New(under, Options{BurstLength: 4, Decay: 4})
	sim.Run(prog, s, sim.Options{Seed: 3})
	if s.Rate() > 0.05 {
		t.Errorf("sampler barely sampled: rate %.3f", s.Rate())
	}
	if len(under.Races()) != 1 {
		t.Errorf("cold race missed at %.3f%% sampling: %v", 100*s.Rate(), under.Races())
	}
}

// A 100% budget must be a pure pass-through: every access forwarded and
// no sampling state (or counters) touched, so wrapping is byte-identical
// to not wrapping.
func TestFullBudgetPassThrough(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1000})
	for i := 0; i < 5000; i++ {
		s.Write(0, uint64(i), 4, event.PC(i%7))
	}
	if c.Writes != 5000 {
		t.Fatalf("pass-through dropped accesses: %d/5000", c.Writes)
	}
	f, sk := s.Counts()
	if f != 0 || sk != 0 {
		t.Errorf("pass-through touched counters: forwarded=%d skipped=%d", f, sk)
	}
	if s.Rate() != 1 {
		t.Errorf("pass-through rate = %v, want 1", s.Rate())
	}
}

// A global budget caps the run-wide forwarded fraction: hot regions
// converge on the budget and the credit check holds the overall rate at
// it (untouched cold regions' first bursts are the only excess).
func TestGlobalBudgetCapsRate(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{BurstLength: 10, RatePermille: 50}) // 5% budget
	for i := 0; i < 200000; i++ {
		// 32 sites over a bounded address range: every (site, block)
		// region is hot, so the credit check governs the whole run.
		s.Write(0, uint64(i%1024), 4, event.PC(i%32))
	}
	if r := s.Rate(); r > 0.055 {
		t.Errorf("budgeted rate %.4f exceeds 5%% budget (+ cold-burst slack)", r)
	} else if r < 0.005 {
		t.Errorf("budgeted rate %.4f collapsed far below budget", r)
	}
}

// SetRatePermille is the controller's live knob: dropping the rate
// mid-run throttles; restoring 1000 returns to pass-through.
func TestSetRateLiveTransition(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1000})
	for i := 0; i < 1000; i++ {
		s.Write(0, uint64(i), 4, 1)
	}
	if c.Writes != 1000 {
		t.Fatalf("full-rate lane dropped accesses: %d", c.Writes)
	}
	s.SetRatePermille(10)
	before := c.Writes
	for i := 0; i < 100000; i++ {
		s.Write(0, uint64(i%256), 4, 1) // bounded range: regions go hot
	}
	if got := c.Writes - before; got > 5000 {
		t.Errorf("throttled lane forwarded %d/100000 (want ≲1%%+burst)", got)
	}
}

// The skip path must not allocate: once a region is hot, skipping its
// accesses is a table lookup plus a state store.
func TestSkipPathZeroAlloc(t *testing.T) {
	s := New(event.Nop{}, Options{BurstLength: 4, RatePermille: 1})
	for i := 0; i < 10000; i++ {
		s.Write(0, uint64(i), 4, 7) // heat the region well past its bursts
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Write(0, 0x100, 4, 7)
	})
	if allocs != 0 {
		t.Errorf("skip path allocates %.1f per op, want 0", allocs)
	}
}

// The sampler has one producer, but the Controller's SetRatePermille and
// telemetry scrapes reach it from other goroutines while events flow.
// Those observers must stay race-free: one producer forces the region
// table through several doublings while a sweeper moves the rate and a
// scraper exports the registry. Run under -race in CI.
func TestConcurrentObservers(t *testing.T) {
	reg := telemetry.New()
	s := New(event.Nop{}, Options{BurstLength: 8, RatePermille: 100, Telemetry: reg})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Sweep through budgeted rates and pass-through and back. End below
		// 1000 so the final stretch still counts (pass-through counts
		// nothing).
		for r := uint32(10); r <= 910; r += 90 {
			s.SetRatePermille(r)
			s.SetRatePermille(1000)
			s.SetRatePermille(r)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.WritePrometheus(io.Discard)
			_ = reg.GaugeValue("detector_sampled_fraction")
			_ = s.RatePermille()
		}
	}()
	for i := 0; i < 100000; i++ {
		// Hot sites plus a cold tail that grows the region table.
		pc := event.PC(i % 16)
		if i%97 == 0 {
			pc = event.PC(1000 + i)
		}
		s.Write(0, uint64(i), 4, pc)
		s.Read(0, uint64(i), 4, pc)
		if i%1000 == 0 {
			s.Acquire(0, 1)
			s.Release(0, 1)
		}
	}
	close(stop)
	wg.Wait()
	f, sk := s.Counts()
	if f == 0 {
		t.Error("no accesses forwarded")
	}
	if got := reg.CounterValue("sampling_forwarded_total"); got != f {
		t.Errorf("sampling_forwarded_total %d, Counts forwarded %d", got, f)
	}
	if got := reg.CounterValue("sampling_skipped_total"); got != sk {
		t.Errorf("sampling_skipped_total %d, Counts skipped %d", got, sk)
	}
	if g := reg.GaugeValue("detector_sampled_fraction"); g != s.Rate() {
		t.Errorf("detector_sampled_fraction %v, Rate %v", g, s.Rate())
	}
}

// A region whose own insert doubles the region table must keep that
// access's state update: its forward/skip pattern is the same whether or
// not the table grew under it.
func TestGrowKeepsInsertingRegionState(t *testing.T) {
	pattern := func(fill int) string {
		c := &event.Counter{}
		s := New(c, Options{BurstLength: 4})
		for i := 0; i < fill; i++ {
			s.Write(0, 0, 4, event.PC(1000+i)) // distinct regions, one access each
		}
		slots := len(s.slots)
		var b strings.Builder
		for i := 0; i < 40; i++ {
			before := c.Writes
			s.Write(0, 0x40000, 4, 7)
			if c.Writes > before {
				b.WriteByte('F')
			} else {
				b.WriteByte('.')
			}
		}
		if grew := len(s.slots) > slots; grew != (fill > 0) {
			t.Fatalf("fill %d: table grew on the probed insert = %v", fill, grew)
		}
		return b.String()
	}
	// 767 regions leave the 1024-slot table one insert short of 3/4 full.
	if plain, doubled := pattern(0), pattern(767); plain != doubled {
		t.Errorf("doubling changed the region's pattern:\nplain   %s\ndoubled %s", plain, doubled)
	}
}

// The one (site, block) pair whose mixed key is zero — the empty-slot
// marker — must still occupy a single slot, not look new on every access.
func TestZeroRegionKeyOccupiesOneSlot(t *testing.T) {
	const c = 0x9E3779B97F4A7C15
	inv := uint64(c) // Newton's iteration for c's inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	s := New(event.Nop{}, Options{BurstLength: 4})
	// Find a site whose zero-key block fits in an address.
	var pc, block uint64
	for block = inv - 1; block>>(64-s.opt.BlockShift) != 0; block = (pc+1)*inv - 1 {
		pc++
	}
	addr := block << s.opt.BlockShift
	if k := s.regionKey(event.PC(pc), addr); k == 0 {
		t.Fatal("regionKey returned the empty-slot marker")
	}
	for i := 0; i < 10000; i++ {
		s.Write(0, addr, 4, event.PC(pc))
	}
	if s.used != 1 || len(s.slots) != 1024 {
		t.Errorf("zero-key region: %d slots used of %d, want 1 of 1024", s.used, len(s.slots))
	}
}

// Go-native sync (channels, WaitGroups) is never sampled away either.
func TestGoSyncAlwaysForwarded(t *testing.T) {
	c := &event.Counter{}
	s := New(c, Options{RatePermille: 1})
	for i := 0; i < 50; i++ {
		s.ChanSend(0, 1, 1)
		s.ChanRecv(1, 1, 1)
		s.WGAdd(0, 2, 1)
		s.WGDone(1, 2)
		s.WGWait(0, 2)
	}
	if c.ChanSends != 50 || c.ChanRecvs != 50 || c.WGAdds != 50 ||
		c.WGDones != 50 || c.WGWaits != 50 {
		t.Errorf("Go-native sync sampled away: %+v", *c)
	}
}

// BenchmarkSampleSkip measures the skip path: one hot region at a 0.1%
// budget, so nearly every access is dropped.
func BenchmarkSampleSkip(b *testing.B) {
	s := New(event.Nop{}, Options{BurstLength: 4, RatePermille: 1})
	for i := 0; i < 10000; i++ {
		s.Write(0, 0x100, 4, 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(0, 0x100, 4, 7)
	}
}

// BenchmarkSampleForward measures the forward path: one region inside a
// maximal first burst, so every access is forwarded. A fresh sampler
// replaces the old one before its burst runs out.
func BenchmarkSampleForward(b *testing.B) {
	var s *Detector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%maxRemaining == 0 {
			s = New(event.Nop{}, Options{BurstLength: maxRemaining})
		}
		s.Write(0, 0x100, 4, 7)
	}
}
