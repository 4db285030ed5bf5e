package main

// perLayer computes the per-layer metrics of a traced run. untraced is the
// same run's untraced window; rt0/rt1 bracket it for the runtime metrics.
// Layers a workload does not run report 0 and are listed in the result's
// not_applicable field.
func (tl *ledger) perLayer(untraced []execution, rt0, rt1 runtimeSample) metricSet {
	m := metricSet{}
	ct := tl.ct
	outer := -1
	for l := 0; l < numLayers; l++ {
		if ct.present[l] {
			outer = l
			break
		}
	}
	// self returns layer l's self time: its inclusive time minus that of
	// the next layer present in the chain.
	self := func(l int) float64 {
		t := ct.layers[l].totalInclusive()
		for k := l + 1; k < numLayers; k++ {
			if ct.present[k] {
				return max(0, t-ct.layers[k].totalInclusive())
			}
		}
		return t
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nExec := float64(len(tl.execs))
	perExec := func(v float64) float64 { return frac(v, nExec) }

	// sim
	var untracedNS, untracedAcc, tracedAcc float64
	for _, e := range untraced {
		if !e.failed() {
			untracedNS += float64(e.CPUNS)
			untracedAcc += float64(e.Accesses)
		}
	}
	for _, e := range tl.execs {
		if !e.failed() {
			tracedAcc += float64(e.Accesses)
		}
	}
	baseNSPerAcc := frac(float64(tl.baseNS), float64(tl.baseAcc))
	ot := &ct.layers[outer]
	m.set("sim.ns_per_access", baseNSPerAcc, "ns")
	// The engine's own time is what sim.Run took less the outermost
	// layer's inclusive time and the timing overhead of every span.
	overheadNS := ct.timedSpans() * tl.cal.nested
	simNS := float64(tl.simNS) - overheadNS
	m.set("sim.self_frac", frac(simNS-ot.totalInclusive(), simNS), "frac")
	m.set("sim.slowdown_x", frac(frac(untracedNS, untracedAcc), baseNSPerAcc), "x")
	m.set("sim.sync_per_kaccess", 1000*frac(float64(ot.calls[clsSync]), float64(ot.calls[clsAccess])), "1/kaccess")

	// event (the elider)
	el := &ct.layers[layerElide]
	m.set("event.elided_frac", frac(float64(tl.elided), float64(el.calls[clsAccess])), "frac")
	m.set("event.elide_ns_per_call", frac(self(layerElide), float64(el.totalCalls())), "ns")

	// sampling
	fwd := 1.0
	if n := tl.forwarded + tl.skipped; n > 0 {
		fwd = float64(tl.forwarded) / float64(n)
	}
	m.set("sampling.forwarded_frac", fwd, "frac")
	m.set("sampling.ns_per_call", frac(self(layerSampling), float64(ct.layers[layerSampling].totalCalls())), "ns")

	// client
	cl := &ct.layers[layerClient]
	ackRTT := tl.clientReg.HistogramValue("client_ack_rtt_ns")
	closeP50 := 0.0
	if len(tl.closeMS) > 0 {
		closeP50 = median(tl.closeMS)
	}
	m.set("client.ns_per_call", frac(cl.totalInclusive(), float64(cl.totalCalls())), "ns")
	m.set("client.bytes_per_access", frac(float64(tl.client.PayloadBytes), tracedAcc), "B")
	m.set("client.batches", perExec(float64(tl.client.Batches)), "count/exec")
	m.set("client.resends", float64(tl.client.Resends), "count")
	m.set("client.ack_rtt_us_p50", float64(ackRTT.Quantile(0.5))/1e3, "us")
	m.set("client.ack_rtt_us_p99", float64(ackRTT.Quantile(0.99))/1e3, "us")
	m.set("client.close_ms_p50", closeP50, "ms")

	// wire
	m.set("wire.encode_ns_per_event", frac(float64(tl.wireEncNS), float64(tl.wireEvents)), "ns")
	m.set("wire.decode_ns_per_event", frac(float64(tl.wireDecNS), float64(tl.wireEvents)), "ns")
	m.set("wire.bytes_per_event", frac(float64(tl.wireBytes), float64(tl.wireEvents)), "B")

	// server
	m.set("server.frames_rejected", float64(tl.srv1.FramesRejected-tl.srv0.FramesRejected), "count")
	m.set("server.bytes_read", perExec(float64(tl.srv1.BytesReadTotal-tl.srv0.BytesReadTotal)), "B/exec")
	m.set("server.shed_records", float64(tl.shed1-tl.shed0), "count")

	// pipeline
	m.set("pipeline.dispatch_wait_us_p50", float64(tl.dispatch.Quantile(0.5))/1e3, "us")
	m.set("pipeline.dispatch_wait_us_p99", float64(tl.dispatch.Quantile(0.99))/1e3, "us")
	m.set("pipeline.batch_apply_us_p50", float64(tl.apply.Quantile(0.5))/1e3, "us")
	m.set("pipeline.queue_depth_peak", float64(tl.queuePeak), "batches")
	m.set("pipeline.ring_parks", perExec(float64(tl.parks)), "count/exec")

	// detector: timed in the traced chain, or in the probe's replay of the
	// remote session's stream.
	dc := ct
	if tl.pct.present[layerDetector] {
		dc = tl.pct
	}
	dt := &dc.layers[layerDetector]
	var acc, same, cmp, races, merges, splits, recycles, interns, demotions, hits, misses float64
	var nodesPeak, vcPeak, compactPeak, hashPeak, bitmapPeak int64
	var sharing float64
	for _, s := range tl.det {
		acc += float64(s.Accesses)
		same += float64(s.SameEpoch)
		cmp += float64(s.SharingComparisons)
		races += float64(s.Races)
		merges += float64(s.Plane.Merges)
		splits += float64(s.Plane.Splits)
		recycles += float64(s.Plane.NodeRecycles)
		interns += float64(s.VCInterns)
		demotions += float64(s.ClockDemotions)
		hits += float64(s.VCPoolHits)
		misses += float64(s.VCPoolMisses)
		sharing += s.Plane.AvgSharing()
		nodesPeak = max(nodesPeak, s.Plane.NodesPeak)
		vcPeak = max(vcPeak, s.VCPeakBytes)
		compactPeak = max(compactPeak, s.ClockCompactPeakBytes)
		hashPeak = max(hashPeak, s.HashPeakBytes)
		bitmapPeak = max(bitmapPeak, s.BitmapPeakBytes)
	}
	nDet := float64(len(tl.det))
	perDet := func(v float64) float64 { return frac(v, nDet) }
	m.set("detector.access_ns_per_call", frac(dt.inclusive(clsAccess), float64(dt.calls[clsAccess])), "ns")
	m.set("detector.sync_ns_per_call", frac(dt.inclusive(clsSync), float64(dt.calls[clsSync])), "ns")
	m.set("detector.free_ns_per_call", frac(dt.inclusive(clsFree), float64(dt.calls[clsFree])), "ns")
	m.set("detector.free_share", frac(dt.inclusive(clsFree), dt.totalInclusive()), "frac")
	m.set("detector.same_epoch_frac", frac(same, acc), "frac")
	m.set("detector.sharing_comparisons", perDet(cmp), "count/exec")
	m.set("detector.races", perDet(races), "count/exec")

	m.set("dyngran.nodes_peak", float64(nodesPeak), "count")
	m.set("dyngran.avg_sharing", perDet(sharing), "locs/node")
	m.set("dyngran.merges", perDet(merges), "count/exec")
	m.set("dyngran.splits", perDet(splits), "count/exec")
	m.set("dyngran.node_recycles", perDet(recycles), "count/exec")

	m.set("vc.pool_hit_frac", frac(hits, hits+misses), "frac")
	m.set("vc.interns", perDet(interns), "count/exec")
	m.set("vc.peak_bytes", float64(vcPeak), "B")
	m.set("vc.compact_peak_bytes", float64(compactPeak), "B")
	m.set("vc.demotions", perDet(demotions), "count/exec")

	m.set("shadow.hash_peak_bytes", float64(hashPeak), "B")
	m.set("epochbitmap.peak_bytes", float64(bitmapPeak), "B")

	// runtime, over the untraced window
	m.set("runtime.alloc_bytes_per_access", frac(rt1.allocBytes-rt0.allocBytes, untracedAcc), "B")
	m.set("runtime.gc_cpu_frac", frac(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "frac")

	m.set("trace.overhead_frac", tl.overhead(untraced), "frac")
	return m
}

// overhead is how much slower the traced executions ran than the untraced
// ones, as a fraction of the untraced accesses per second.
func (tl *ledger) overhead(untraced []execution) float64 {
	u := throughput(untraced)
	if u == 0 {
		return 0
	}
	return 1 - throughput(tl.execs)/u
}

// notApplicable lists the per-layer metric prefixes of layers the workload
// does not run.
func (tl *ledger) notApplicable() []string {
	var na []string
	if !tl.ct.present[layerElide] {
		na = append(na, "event.")
	}
	if !tl.ct.present[layerSampling] {
		na = append(na, "sampling.ns_per_call")
	}
	if !tl.ct.present[layerClient] {
		na = append(na, "client.", "wire.", "server.", "pipeline.")
	}
	return na
}
