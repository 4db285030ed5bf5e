package client

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/workloads"
)

// startServer starts a racedetectd on a loopback listener; shut down at
// test cleanup.
func startServer(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && err != server.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func sortDetRaces(rs []detector.Race) []detector.Race {
	out := append([]detector.Race(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.PC < b.PC
	})
	return out
}

// runRemote streams the named workload through a client built from opts
// and returns the remote report plus the in-process reference detector.
func runRemote(t *testing.T, opts Options, name string, g detector.Granularity) (*wire.Report, *detector.Detector, *Client) {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := detector.New(detector.Config{Granularity: g})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	opts.Hello.Granularity = uint8(g)
	cl, err := Dial(opts)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(spec.Program(), cl, sim.Options{Seed: 42})
	rep, err := cl.Close()
	if err != nil {
		t.Fatalf("Close: %v (client err: %v)", err, cl.Err())
	}
	return rep, ref, cl
}

func checkEquivalent(t *testing.T, rep *wire.Report, ref *detector.Detector) {
	t.Helper()
	want := sortDetRaces(ref.Races())
	got := sortDetRaces(rep.DetectorRaces())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("race sets differ:\nin-process (%d): %v\nremote (%d): %v",
			len(want), want, len(got), got)
	}
	if rep.Stats.Accesses != ref.Stats().Accesses {
		t.Fatalf("Accesses: in-process %d, remote %d",
			ref.Stats().Accesses, rep.Stats.Accesses)
	}
}

func TestAsyncStreaming(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	rep, ref, cl := runRemote(t,
		Options{Addr: addr, Hello: wire.Hello{Workers: 2}},
		"pbzip2", detector.Dynamic)
	checkEquivalent(t, rep, ref)
	st := cl.Stats()
	if st.Batches == 0 || st.Events == 0 {
		t.Fatalf("no transport activity recorded: %+v", st)
	}
	if st.Reconnects != 0 || st.Resends != 0 {
		t.Fatalf("unexpected reconnects on a healthy link: %+v", st)
	}
}

func TestSyncMode(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	rep, ref, cl := runRemote(t,
		Options{Addr: addr, Sync: true, Hello: wire.Hello{Workers: 2}},
		"pbzip2", detector.Word)
	checkEquivalent(t, rep, ref)
	// Strict ordering keeps exactly one batch in flight: everything the
	// client sent must be acknowledged by the time Close returns.
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.window != 1 {
		t.Fatalf("sync mode negotiated window %d, want 1", cl.window)
	}
	if len(cl.unacked) != 0 || cl.acked != cl.batchSeq {
		t.Fatalf("unacked frames after sync close: %d (acked %d of %d)",
			len(cl.unacked), cl.acked, cl.batchSeq)
	}
}

// TestReconnectResume kills the client's TCP connection mid-stream and
// checks the session resumes: the final report must still match the
// in-process run exactly (no lost or duplicated events).
func TestReconnectResume(t *testing.T) {
	_, addr := startServer(t, server.Options{SessionLinger: 5 * time.Second})
	spec, err := workloads.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	ref := detector.New(detector.Config{Granularity: detector.Dynamic})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	var logs lockedBuffer
	cl, err := Dial(Options{
		Addr:        addr,
		Hello:       wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
		BackoffBase: time.Millisecond,
		Logger:      slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sever the link a few times while the stream is in flight.
	stop := make(chan struct{})
	killed := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				killed <- n
				return
			case <-time.After(10 * time.Millisecond):
			}
			cl.mu.Lock()
			if cl.conn != nil && !cl.connDead {
				cl.conn.Close() // receiver sees the error and marks it dead
				n++
			}
			cl.mu.Unlock()
		}
		killed <- n
	}()

	sim.Run(spec.Program(), cl, sim.Options{Seed: 42})
	// Stop the killer before Close: a kill that lands after the report is
	// already delivered needs no reconnect, which would make the
	// Reconnects assertion below meaningless.
	close(stop)
	n := <-killed
	rep, err := cl.Close()
	if err != nil {
		t.Fatalf("Close after disconnects: %v", err)
	}
	checkEquivalent(t, rep, ref)

	if n > 0 {
		st := cl.Stats()
		if st.Reconnects == 0 {
			t.Fatalf("connection killed %d time(s) but no reconnects recorded: %+v", n, st)
		}
		if got := strings.Count(logs.String(), `msg="session resumed"`); got != int(st.Reconnects) {
			t.Errorf("%d session-resumed log records, want one per reconnect (%d)", got, st.Reconnects)
		}
		t.Logf("killed %d connection(s): %+v", n, st)
	}
}

// lockedBuffer is a bytes.Buffer safe to write from the client's
// goroutines and read from the test's.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestDialFailureGivesUp(t *testing.T) {
	// An address that refuses connections: listen, then close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	_, err = Dial(Options{
		Addr:        addr,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Dial retried far past its budget: %v", time.Since(start))
	}
}

func TestPermanentRejectionIsImmediate(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	_, err := Dial(Options{
		Addr:        addr,
		Hello:       wire.Hello{Granularity: 99},
		BackoffBase: time.Second, // would make retries visible in test time
	})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if re.Code != wire.CodeBadOptions {
		t.Fatalf("code %q, want %q", re.Code, wire.CodeBadOptions)
	}
}
