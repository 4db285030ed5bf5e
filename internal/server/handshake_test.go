package server_test

import (
	"errors"
	"net"
	"reflect"
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

// TestOldClientNewServer pins the server side of the version gate: a
// version-1 client (whose batches were packed records, and whose Hello
// named a codec) is refused with CodeBadVersion before any of its batches
// is decoded, and no session is opened for it.
func TestOldClientNewServer(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	oldHello := []byte(`{"version":1,"codec":1,"granularity":2,"workers":1,"window":32}`)
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Header{Type: wire.TypeHello}, oldHello)); err != nil {
		t.Fatal(err)
	}
	h, body, err := wire.NewReader(conn, 0).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	var ep wire.ErrorPayload
	if h.Type != wire.TypeError || wire.UnmarshalControl(body, &ep) != nil || ep.Code != wire.CodeBadVersion {
		t.Fatalf("version-1 hello answered %v %s, want a %s error", h.Type, body, wire.CodeBadVersion)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("refused hello left %d sessions open", n)
	}
}

// TestNewClientOldServer pins the client side: against a peer that
// refuses its protocol version (a server of another version answers every
// Hello this way), Dial returns the refusal as a typed, permanent error
// without retrying.
func TestNewClientOldServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepted sync.WaitGroup
	dials := 0
	accepted.Add(1)
	go func() {
		defer accepted.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			dials++
			if _, _, err := wire.NewReader(c, 0).ReadFrame(); err == nil {
				refusal, _ := wire.AppendControlFrame(nil, wire.Header{Type: wire.TypeError},
					wire.ErrorPayload{Code: wire.CodeBadVersion, Message: "protocol version 2, want 1"})
				c.Write(refusal)
			}
			c.Close()
		}
	}()
	_, err = client.Dial(client.Options{
		Addr: l.Addr().String(), MaxAttempts: 3, BackoffBase: time.Millisecond,
		Hello: wire.Hello{Granularity: uint8(detector.Dynamic)},
	})
	l.Close()
	accepted.Wait()
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBadVersion {
		t.Fatalf("Dial against a version-1 peer: %v, want a *client.RemoteError with code %s", err, wire.CodeBadVersion)
	}
	if dials != 1 {
		t.Fatalf("Dial retried a version refusal: %d dials, want 1", dials)
	}
}

// TestHostileTidRefused sends thread ids the detector cannot index — a
// negative accessing tid, and a negative child tid in a fork — on two
// sessions while a well-formed session streams a real workload. Each
// hostile session is refused with a typed protocol error; the well-formed
// one finishes with the in-process verdict; the daemon stays up.
func TestHostileTidRefused(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	spec, err := workloads.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	ref := detector.New(detector.Config{Granularity: detector.Dynamic})
	sim.Run(spec.Program(), ref, sim.Options{Seed: 42})

	good, err := client.Dial(client.Options{
		Addr:  addr,
		Hello: wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		goodRep *wire.Report
		goodErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sim.Run(spec.Program(), good, sim.Options{Seed: 42})
		goodRep, goodErr = good.Close()
	}()

	hostile := map[string]func(s event.Sink){
		"negative-tid": func(s event.Sink) { s.Write(-5, 0x1000, 4, 0) },
		"negative-fork-child": func(s event.Sink) {
			s.Fork(0, 1)
			s.Fork(1, -5)
		},
	}
	for name, send := range hostile {
		cl, err := client.Dial(client.Options{
			Addr: addr, Sync: true,
			Hello: wire.Hello{Granularity: uint8(detector.Dynamic), Workers: 2},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		send(cl)
		_, err = cl.Close()
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeProtocol {
			t.Errorf("%s: Close = %v, want a *client.RemoteError with code %s", name, err, wire.CodeProtocol)
		}
	}

	wg.Wait()
	if goodErr != nil {
		t.Fatalf("well-formed session: %v", goodErr)
	}
	want, got := sortDetRaces(ref.Races()), sortDetRaces(goodRep.DetectorRaces())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("well-formed session verdict changed:\nin-process (%d): %v\nremote (%d): %v",
			len(want), want, len(got), got)
	}
	if rep := goodRep.DetectorStats(); rep.Accesses != ref.Stats().Accesses {
		t.Fatalf("Accesses: in-process %d, remote %d", ref.Stats().Accesses, rep.Accesses)
	}
	if n := srv.Metrics().FramesRejected; n < int64(len(hostile)) {
		t.Fatalf("frames rejected = %d, want >= %d", n, len(hostile))
	}
}
