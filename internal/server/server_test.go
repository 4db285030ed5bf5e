package server_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/workloads"
)

// startServer starts a server on a loopback listener and returns it with
// its address. The server is shut down at test cleanup.
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

// TestEndToEndWorkload streams a real workload through the wire protocol
// and checks the remote report matches the in-process serial detector.
func TestEndToEndWorkload(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	spec, err := workloads.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference.
	ref := detector.New(detector.Config{Granularity: detector.Dynamic})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	cl, err := client.Dial(client.Options{
		Addr:  addr,
		Hello: wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(spec.Program(), cl, sim.Options{Seed: 42})
	rep, err := cl.Close()
	if err != nil {
		t.Fatal(err)
	}

	want := sortDetRaces(ref.Races())
	got := sortDetRaces(rep.DetectorRaces())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("race sets differ:\nin-process (%d): %v\nremote (%d): %v",
			len(want), want, len(got), got)
	}
	if rep.Stats.Accesses != ref.Stats().Accesses {
		t.Fatalf("Accesses: in-process %d, remote %d", ref.Stats().Accesses, rep.Stats.Accesses)
	}
	// The server writes the report before it retires the session and
	// counts its races, so the client can get here first.
	waitFor(t, "session retired", 5*time.Second, func() bool { return srv.Metrics().SessionsActive == 0 })
	m := srv.Metrics()
	if m.SessionsTotal != 1 || m.SessionsActive != 0 || m.EventsTotal == 0 {
		t.Fatalf("unexpected metrics after clean session: %+v", m)
	}
	if m.RacesTotal != int64(len(want)) {
		t.Fatalf("races metric %d, want %d", m.RacesTotal, len(want))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectMidStreamNoLeak is the acceptance check for abandoned
// sessions: a client that vanishes mid-stream must leave no session and no
// goroutines behind once the linger expires.
func TestDisconnectMidStreamNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, addr := startServer(t, server.Options{SessionLinger: 30 * time.Millisecond})

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hello, _ := wire.MarshalControl(wire.Hello{Version: wire.Version, Granularity: uint8(detector.Dynamic), Workers: 4})
		frame := wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, hello)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.NewReader(conn, 0).ReadFrame(); err != nil {
			t.Fatal(err)
		}
		// Stream a couple of batches, then vanish without Close.
		b := event.GetBatch()
		for j := 0; j < 100; j++ {
			b.Append(event.Rec{Op: event.OpWrite, Tid: 0, Addr: uint64(0x1000 + j), Size: 4, Seq: uint64(j + 1)})
		}
		for seq := uint64(1); seq <= 2; seq++ {
			frame = wire.AppendBatchFrame(frame[:0], wire.Header{Seq: seq}, b)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		event.PutBatch(b)
		conn.Close()
	}

	waitFor(t, "sessions to be aborted", 5*time.Second, func() bool { return srv.SessionCount() == 0 })
	m := srv.Metrics()
	if m.SessionsAborted != 3 {
		t.Fatalf("SessionsAborted = %d, want 3", m.SessionsAborted)
	}
	// All pipeline workers and handlers must be gone (allow scheduler
	// wind-down time).
	waitFor(t, "goroutines to drain", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2 // the Serve accept loop + slack
	})
}

// TestGracefulDrain checks Shutdown: completed sessions drain cleanly; a
// hung client is force-closed when the context expires and its session is
// reclaimed.
func TestGracefulDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{SessionLinger: 10 * time.Millisecond})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	// One clean session.
	cl, err := client.Dial(client.Options{Addr: l.Addr().String(),
		Hello: wire.Hello{Granularity: uint8(detector.Byte), Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Write(0, 0x1000, 4, 0)
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// One hung client holding a session open.
	hung, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	hello, _ := wire.MarshalControl(wire.Hello{Version: wire.Version, Granularity: uint8(detector.Byte), Workers: 1})
	if _, err := hung.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, hello)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.NewReader(hung, 0).ReadFrame(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (hung client forced)", err)
	}
	if err := <-serveDone; err != server.ErrServerClosed {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
	waitFor(t, "sessions reclaimed after forced drain", 5*time.Second,
		func() bool { return srv.SessionCount() == 0 })
	waitFor(t, "goroutines to drain", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+1
	})

	// A draining server refuses new connections.
	if _, err := client.Dial(client.Options{Addr: l.Addr().String(), MaxAttempts: 1,
		Hello: wire.Hello{Granularity: uint8(detector.Byte)}}); err == nil {
		t.Fatal("Dial succeeded against a drained server")
	}
}

// TestSessionLimit checks the MaxSessions cap produces a typed remote
// error.
func TestSessionLimit(t *testing.T) {
	_, addr := startServer(t, server.Options{MaxSessions: 1})
	first, err := client.Dial(client.Options{Addr: addr,
		Hello: wire.Hello{Granularity: uint8(detector.Byte)}})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = client.Dial(client.Options{Addr: addr, MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		Hello:       wire.Hello{Granularity: uint8(detector.Byte)}})
	if err == nil || !strings.Contains(err.Error(), wire.CodeSessionLimit) {
		t.Fatalf("second session error = %v, want %s", err, wire.CodeSessionLimit)
	}
}

// TestRejectsBadHello checks option validation happens at the boundary.
func TestRejectsBadHello(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	cases := []wire.Hello{
		{Version: 99, Granularity: uint8(detector.Byte)}, // bad version
		{Version: wire.Version, Granularity: 77},         // unknown granularity
		{Version: wire.Version, Granularity: uint8(detector.Byte), Workers: -2},
		{Version: wire.Version, Resume: 424242, Granularity: uint8(detector.Byte)}, // unknown session
	}
	for i, hello := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := wire.MarshalControl(hello)
		if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, payload)); err != nil {
			t.Fatal(err)
		}
		h, body, err := wire.NewReader(conn, 0).ReadFrame()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if h.Type != wire.TypeError {
			t.Fatalf("case %d: got %v, want error frame", i, h.Type)
		}
		var ep wire.ErrorPayload
		if err := wire.UnmarshalControl(body, &ep); err != nil {
			t.Fatal(err)
		}
		if ep.Code == "" {
			t.Fatalf("case %d: empty error code", i)
		}
		conn.Close()
	}
}

// TestRejectsGarbageFrames checks the framing limits: bad magic and
// oversized frames are refused and counted, and never crash the server.
func TestRejectsGarbageFrames(t *testing.T) {
	srv, addr := startServer(t, server.Options{MaxFrameBytes: 1024})

	// Garbage bytes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n"))
	io.Copy(io.Discard, conn) // server replies with an error frame and closes
	conn.Close()

	// Oversized declared length.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	huge := wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, make([]byte, 4096))
	conn2.Write(huge)
	io.Copy(io.Discard, conn2)
	conn2.Close()

	waitFor(t, "rejected frames to be counted", 5*time.Second, func() bool {
		return srv.Metrics().FramesRejected >= 2
	})
}

// TestHTTPSidecar checks /healthz and /metrics.
func TestHTTPSidecar(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Complete one session so the counters move.
	cl, err := client.Dial(client.Options{Addr: addr,
		Hello: wire.Hello{Granularity: uint8(detector.Dynamic)}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Write(0, 0x1000, 4, 0)
	if _, err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"racedetectd_sessions_total 1",
		"racedetectd_events_total 1",
		"racedetectd_queue_depth",
		"racedetectd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestReportRedelivery pins the closed-report retention path: a client
// whose connection dies after the server processed Close (but before the
// report was read) can resume the session id and retry the Close, and the
// server re-delivers the identical retained report.
func TestReportRedelivery(t *testing.T) {
	srv, addr := startServer(t, server.Options{SessionLinger: 5 * time.Second})

	// Session 1: hello, one batch, Close — then read the report normally.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := wire.MarshalControl(wire.Hello{Version: wire.Version, Granularity: uint8(detector.Dynamic), Workers: 1})
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, hello)); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn, 0)
	h, payload, err := rd.ReadFrame()
	if err != nil || h.Type != wire.TypeHelloAck {
		t.Fatalf("handshake: %v %v", h.Type, err)
	}
	var ack wire.HelloAck
	if err := wire.UnmarshalControl(payload, &ack); err != nil {
		t.Fatal(err)
	}
	b := &event.Batch{}
	b.Append(event.Rec{Op: event.OpWrite, Tid: 0, Addr: 0x1000, Size: 4, Seq: 1})
	b.Append(event.Rec{Op: event.OpWrite, Tid: 1, Addr: 0x1000, Size: 4, Seq: 2})
	if _, err := conn.Write(wire.AppendBatchFrame(nil, wire.Header{Session: ack.SessionID, Seq: 1}, b)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeClose, Session: ack.SessionID, Seq: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	var first wire.Report
	for {
		h, payload, err = rd.ReadFrame()
		if err != nil {
			t.Fatalf("reading report: %v", err)
		}
		if h.Type == wire.TypeReport {
			if err := wire.UnmarshalControl(payload, &first); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	conn.Close()

	// The session is gone but its report is retained; a resume must
	// succeed and a retried Close must re-deliver the same report.
	waitFor(t, "session retired", time.Second, func() bool { return srv.SessionCount() == 0 })
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	resume, _ := wire.MarshalControl(wire.Hello{Version: wire.Version, Resume: ack.SessionID,
		Granularity: uint8(detector.Dynamic), Workers: 1})
	if _, err := conn2.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, resume)); err != nil {
		t.Fatal(err)
	}
	rd2 := wire.NewReader(conn2, 0)
	h, payload, err = rd2.ReadFrame()
	if err != nil || h.Type != wire.TypeHelloAck {
		t.Fatalf("resume handshake: %v %v (%s)", h.Type, err, payload)
	}
	var rack wire.HelloAck
	if err := wire.UnmarshalControl(payload, &rack); err != nil {
		t.Fatal(err)
	}
	if rack.SessionID != ack.SessionID || rack.ResumeSeq != 1 {
		t.Fatalf("resume ack: %+v", rack)
	}
	if _, err := conn2.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeClose, Session: ack.SessionID, Seq: 1}, nil)); err != nil {
		t.Fatal(err)
	}
	h, payload, err = rd2.ReadFrame()
	if err != nil || h.Type != wire.TypeReport {
		t.Fatalf("re-delivery: %v %v", h.Type, err)
	}
	var second wire.Report
	if err := wire.UnmarshalControl(payload, &second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-delivered report differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	if len(second.Races) != 1 {
		t.Fatalf("expected the seeded write-write race, got %+v", second.Races)
	}

	// Once re-delivered, the retained report is dropped: a third resume
	// must be refused with no-session.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	if _, err := conn3.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, resume)); err != nil {
		t.Fatal(err)
	}
	h, payload, err = wire.NewReader(conn3, 0).ReadFrame()
	if err != nil || h.Type != wire.TypeError {
		t.Fatalf("third resume: %v %v", h.Type, err)
	}
	var ep wire.ErrorPayload
	if err := wire.UnmarshalControl(payload, &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Code != wire.CodeNoSession {
		t.Fatalf("third resume code %q, want %q", ep.Code, wire.CodeNoSession)
	}
}

// TestConcurrentScrape is the -race acceptance test for the consistent
// metrics snapshot: several scraper goroutines hammer /metrics, /healthz
// and /sessions while real client sessions stream workloads. The race
// detector catches unsynchronized counter access; the assertions catch
// snapshots that violate the lifecycle invariants the single-critical-
// section Metrics() guarantees.
func TestConcurrentScrape(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/healthz", "/sessions", "/debug/vars"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	// Snapshot invariants under load: active ≤ total, aborted ≤ total,
	// and the monotone counters never run backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev server.MetricsSnapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := srv.Metrics()
			if m.SessionsActive > m.SessionsTotal {
				t.Errorf("snapshot violates active ≤ total: %+v", m)
				return
			}
			if m.SessionsAborted > m.SessionsTotal {
				t.Errorf("snapshot violates aborted ≤ total: %+v", m)
				return
			}
			if m.EventsTotal < prev.EventsTotal || m.SessionsTotal < prev.SessionsTotal {
				t.Errorf("monotone counter ran backwards: %+v after %+v", m, prev)
				return
			}
			prev = m
		}
	}()

	const sessions = 4
	var clients sync.WaitGroup
	for i := 0; i < sessions; i++ {
		clients.Add(1)
		go func(seed int64) {
			defer clients.Done()
			cl, err := client.Dial(client.Options{
				Addr:  addr,
				Hello: wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
			})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			sim.Run(spec.Program(), cl, sim.Options{Seed: seed})
			if _, err := cl.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(int64(i + 1))
	}
	clients.Wait()
	close(stop)
	wg.Wait()

	m := srv.Metrics()
	if m.SessionsTotal != sessions || m.SessionsActive != 0 {
		t.Fatalf("after %d clean sessions: %+v", sessions, m)
	}
	if m.EventsTotal == 0 || m.BatchesTotal == 0 {
		t.Fatalf("no traffic recorded: %+v", m)
	}
}
