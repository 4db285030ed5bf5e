package race

import (
	"testing"

	"repro/internal/event"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/workloads"
)

// TestWireTelemetryReconciliation pins the wire byte accounting the same
// way TestTelemetryReconciliation pins the detector counters, exactly: the
// raw counter is events x wire.RecSize, the v2 payload counter equals the
// columnar encoding of the same batches re-encoded here, and the live
// compression-ratio gauge is their quotient — which on this locality
// stream must be the >=4x the columnar codec promises.
func TestWireTelemetryReconciliation(t *testing.T) {
	addr := startDetectd(t, server.Options{})
	spec, err := workloads.ByName("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Granularity: Dynamic, Seed: 42, Workers: 2, Remote: addr, Telemetry: telemetry.New()}
	if _, err := RunE(spec.Program(), opts); err != nil {
		t.Fatal(err)
	}
	reg := opts.Telemetry

	// The client batches with a fixed-size event.Encoder, so replaying the
	// same schedule through one reproduces its batches exactly.
	var batches, events, want uint64
	enc := &event.Encoder{Flush: func(b *event.Batch) {
		batches++
		events += uint64(len(b.Recs))
		want += uint64(len(wire.AppendColumnar(nil, b.Recs)))
		event.PutBatch(b)
	}}
	sim.Run(spec.Program(), enc, opts.engineOptions())
	enc.Close()

	if got := reg.CounterValue("client_batches_total"); got != batches {
		t.Fatalf("client_batches_total = %d, re-encoded stream has %d batches", got, batches)
	}
	if got := reg.CounterValue("client_events_total"); got != events {
		t.Fatalf("client_events_total = %d, re-encoded stream has %d events", got, events)
	}
	raw := reg.CounterValue("wire_raw_bytes_total")
	if raw != events*wire.RecSize {
		t.Errorf("wire_raw_bytes_total = %d, want events x %d = %d", raw, wire.RecSize, events*wire.RecSize)
	}
	var v2 uint64
	series := 0
	reg.Each(func(m telemetry.Metric) {
		if m.Name == "wire_payload_bytes_total" {
			series++
			if m.Labels["codec"] == "v2" {
				v2 = uint64(m.Value)
			}
		}
	})
	if series != 1 {
		t.Errorf("wire_payload_bytes_total has %d series, want only codec=v2", series)
	}
	if v2 != want {
		t.Errorf("v2 payload bytes = %d, want %d (the columnar encoding of every batch)", v2, want)
	}
	ratio := reg.GaugeValue("wire_compression_ratio")
	if want := float64(raw) / float64(v2); ratio != want {
		t.Errorf("wire_compression_ratio = %v, want raw/v2 = %v", ratio, want)
	}
	if ratio < 4 {
		t.Errorf("wire_compression_ratio = %.2f, want >= 4 (%.2f B/event)", ratio, float64(v2)/float64(events))
	}
}

// TestRingTelemetry checks the ring dispatch registers its occupancy and
// park instrumentation, records the router's per-ship dispatch wait, and
// the adaptive policy exports a live batch target, on an ordinary local
// sharded run.
func TestRingTelemetry(t *testing.T) {
	spec, err := workloads.ByName("ffmpeg")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	if _, err := RunE(spec.Program(), Options{
		Granularity: Dynamic, Seed: 42, Workers: 2,
		BatchPolicy: "adaptive", Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	parkSides := map[string]bool{}
	reg.Each(func(m telemetry.Metric) {
		families[m.Name] = true
		if m.Name == "pipeline_ring_parks_total" {
			parkSides[m.Labels["side"]] = true
		}
	})
	for _, want := range []string{
		"pipeline_ring_parks_total",
		"pipeline_ring_occupancy",
		"pipeline_batch_target",
	} {
		if !families[want] {
			t.Errorf("ring run did not register %s", want)
		}
	}
	for _, side := range []string{"producer", "consumer"} {
		if !parkSides[side] {
			t.Errorf("pipeline_ring_parks_total missing side=%q series", side)
		}
	}
	if target := reg.GaugeValue("pipeline_batch_target"); target < 64 || target > 2048 {
		t.Errorf("pipeline_batch_target = %v, want within [64, 2048]", target)
	}
	wait := reg.HistogramValue("pipeline_dispatch_wait_ns")
	if p50, p99 := wait.Quantile(0.50), wait.Quantile(0.99); wait.Count == 0 || p50 == 0 || p99 < p50 {
		t.Errorf("pipeline_dispatch_wait_ns: %d observations, p50=%d p99=%d", wait.Count, p50, p99)
	}
}
