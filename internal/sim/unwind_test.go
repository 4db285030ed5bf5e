package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
)

// settledGoroutines waits briefly for the goroutine count to fall to want:
// an unwound thread signals Run from a deferred call, so its goroutine may
// still be finishing when Run returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// crowd spawns workers in every blocking state the engine knows — ready
// and spinning (unless spin is false), parked on a lock, parked at a
// barrier, parked on a channel, never started — and then runs tail on the
// main thread. Some workers defer engine calls, which run while the thread
// unwinds; one of them panics.
func crowd(spin bool, tail func(m *Thread)) func(m *Thread) {
	return func(m *Thread) {
		l := m.NewLock()
		b := m.NewBarrier(3)
		ch := m.NewChan(0)
		m.Lock(l)
		for i := 0; spin && i < 3; i++ {
			m.Go(func(w *Thread) {
				defer w.Write(0x400, 8)
				for {
					w.Write(0x100+uint64(w.ID())*8, 8)
				}
			})
		}
		m.Go(func(w *Thread) {
			defer w.Yield()
			w.Lock(l)
		})
		m.Go(func(w *Thread) {
			defer w.Unlock(l) // not ours: panics while unwinding
			w.Barrier(b)
		})
		m.Go(func(w *Thread) { w.Recv(ch) })
		for i := 0; i < 50; i++ {
			m.Yield()
		}
		m.Go(func(w *Thread) { w.Write(0x200, 8) })
		tail(m)
	}
}

// TestAbandonedThreadsUnwind ends runs early in each way a run can end
// early and checks that no virtual thread's goroutine outlives Run.
func TestAbandonedThreadsUnwind(t *testing.T) {
	cases := []struct {
		name      string
		opts      Options
		still     bool // no spinning workers
		tail      func(m *Thread)
		wantPanic string // "" = Run returns normally
	}{
		{
			name: "deadline",
			opts: Options{Seed: 3, Deadline: time.Now().Add(30 * time.Millisecond)},
			tail: func(m *Thread) {
				for {
					m.Write(0x300, 8)
				}
			},
		},
		{
			name: "max-events",
			opts: Options{Seed: 3, MaxEvents: 5000},
			tail: func(m *Thread) {
				for {
					m.Write(0x300, 8)
				}
			},
			wantPanic: "event budget",
		},
		{
			name:      "program-panic",
			opts:      Options{Seed: 3},
			tail:      func(m *Thread) { m.Free(0xdeadbeef) },
			wantPanic: "free of unallocated",
		},
		{
			name:  "deadlock",
			opts:  Options{Seed: 3},
			still: true,
			tail: func(m *Thread) {
				l := m.NewLock()
				m.Lock(l)
				m.Lock(l)
			},
			wantPanic: "deadlock",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var st Stats
			var got any
			func() {
				defer func() { got = recover() }()
				st = Run(Program{Name: tc.name, Main: crowd(!tc.still, tc.tail)}, event.Nop{}, tc.opts)
			}()
			switch {
			case tc.wantPanic == "" && got != nil:
				t.Fatalf("unexpected panic: %v", got)
			case tc.wantPanic != "" && (got == nil || !strings.Contains(fmt.Sprint(got), tc.wantPanic)):
				t.Fatalf("panic = %v, want one containing %q", got, tc.wantPanic)
			}
			if tc.name == "deadline" && !st.TimedOut {
				t.Error("run should have timed out")
			}
			if n := settledGoroutines(base); n > base {
				t.Errorf("%d goroutines after Run, %d before", n, base)
			}
		})
	}
}

// TestUnwindSilencesSink checks that events emitted while the abandoned
// threads unwind never reach the sink: the run is over once Run returns.
func TestUnwindSilencesSink(t *testing.T) {
	l := &logSink{}
	st := Run(Program{Name: "silence", Main: crowd(true, func(m *Thread) {
		for {
			m.Write(0x300, 8)
		}
	})}, l, Options{Seed: 5, Deadline: time.Now().Add(20 * time.Millisecond)})
	if !st.TimedOut {
		t.Fatal("run should have timed out")
	}
	if uint64(len(l.events)) != st.Events {
		t.Errorf("sink saw %d events, engine counted %d", len(l.events), st.Events)
	}
}
