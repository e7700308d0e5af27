package main

import (
	"runtime"
	"time"

	"streamgpu/internal/stats"
	"streamgpu/internal/telemetry"
)

// reading is one family's total in a registry snapshot, over the series
// whose labels include every pair of match.
type reading struct {
	value float64 // counters and gauges
	count int64   // histograms
	sum   float64
}

func read(s telemetry.Snapshot, name string, match telemetry.Labels) reading {
	var r reading
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
	series:
		for _, sr := range m.Series {
			for k, v := range match {
				if sr.Labels[k] != v {
					continue series
				}
			}
			r.value += sr.Value
			r.count += sr.Count
			r.sum += sr.Sum
		}
	}
	return r
}

// delta is what a family gained between two snapshots of one registry.
func delta(s0, s1 telemetry.Snapshot, name string, match telemetry.Labels) reading {
	a, b := read(s0, name, match), read(s1, name, match)
	return reading{value: b.value - a.value, count: b.count - a.count, sum: b.sum - a.sum}
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is everything a traced run measured, from its three sources.
type traced struct {
	sp        spec
	untraced  window // C: half-length window, tracing and Config.Metrics off
	window    window // C: half-length window with both on
	s0, s1    telemetry.Snapshot
	tr        *tracer
	rc        replayCounts
	perItem   map[string]float64 // micro: ns per item by span name
	seqMBs    float64            // file_spar: CompressSeq on the same input
	pipeline  string             // telemetry name of the pipeline that served the window
	process   []string           // its replicated stage(s)
	sinkStage string             // its ordered sink
}

// perLayerValues computes the per-layer table. Replay rows come from span
// totals, registry rows from snapshot deltas over the traced window, client
// rows from its samples.
func (t *traced) perLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}
	tot := func(name string) float64 { return float64(t.tr.total(name)) }
	const usec, msec = float64(time.Microsecond), float64(time.Millisecond)
	mb := float64(t.rc.payload) / 1e6
	reqs := float64(t.rc.requests)

	v["failed_share"] = ratio(float64(t.untraced.failed+t.window.failed), float64(t.untraced.attempted+t.window.attempted))

	// R: the replay.
	framedMB := float64(t.rc.framed) / 1e6
	v["wire.encode_us_per_mb"] = ratio((tot(spEncodeReq)+tot(spEncodeResp))/usec, framedMB)
	v["wire.decode_us_per_mb"] = ratio((tot(spDecodeReq)+tot(spDecodeResp))/usec, framedMB)
	v["rabin.ms_per_mb"] = ratio(tot(spRabin)/msec, mb)
	v["rabin.blocks_per_mb"] = ratio(float64(t.rc.blocks), mb)
	v["sha1x.ms_per_mb"] = ratio(tot(spHash)/msec, mb)
	v["dedup.mark_us_per_kblock"] = ratio(tot(spMark)/usec, float64(t.rc.blocks)/1000)
	v["dedup.first_share"] = ratio(float64(t.rc.firsts), float64(t.rc.blocks))
	v["dedup.write_ms_per_mb"] = ratio(tot(spWrite)/msec, mb)
	v["dedup.restore_ms_per_mb"] = ratio(tot(spRestore)/msec, float64(t.rc.restored)/1e6)
	v["lzss.ms_per_mb"] = ratio(tot(spLZSS)/msec, mb)
	v["lzss.ms_per_first_mb"] = ratio(tot(spLZSS)/msec, float64(t.rc.firstBytes)/1e6)
	v["lzss.lane_speedup"] = ratio(tot(spLZSS), tot(spLZSSLanes))
	v["mandel.us_per_row"] = ratio(tot(spComputeRow)/usec, float64(t.rc.rows))
	v["qos.sched_ns_per_item"] = t.perItem[spSched]
	v["ff.spsc_ns_per_item"] = t.perItem[spSPSC]
	v["ff.mpmc_ns_per_item"] = t.perItem[spMPMC]
	v["ff.farm_ns_per_item"] = t.perItem[spFarm]
	v["dedup.seq_mb_s"] = t.seqMBs
	v["dedup.spar_speedup"] = ratio(t.untraced.throughput(t.sp), t.seqMBs)

	// What the server does for the mean replayed request once its service
	// clock runs: everything from the cut to the response frame. On the GPU
	// path the Processor's wall time stands in for hash, mark and compress.
	cpuProcess := tot(spHash) + tot(spMark) + tot(spLZSS)
	process := cpuProcess
	if t.sp.gpu {
		process = tot(spGPU)
		v["gpu.batch_wall_ms"] = ratio(tot(spGPU)/msec, reqs)
		v["gpu.sim_overhead_x"] = ratio(tot(spGPU), cpuProcess)
		v["gpu.cpu_fallbacks"] = float64(t.rc.fallbacks)
	}
	stageSumMs := ratio((tot(spRabin)+process+tot(spWrite)+tot(spParse)+tot(spComputeRow)+tot(spEncodeResp))/msec, reqs)

	// C: the traced window's client samples.
	lat := t.window.latencies()
	clientMeanMs := lat.Mean()
	v["client.samples"] = float64(lat.N())
	v["latency_p90_ms"] = lat.Percentile(90)
	v["client.latency_p99_ms"] = lat.Percentile(99)
	var late stats.Sample
	for _, s := range t.window.samples {
		late.Add(ms(s.sentAt - s.due))
	}
	v["client.late_p99_ms"] = late.Percentile(99)
	v["telemetry.overhead_share"] = ratio(t.untraced.throughput(t.sp)-t.window.throughput(t.sp), t.untraced.throughput(t.sp))

	// S: registry deltas over the traced window.
	d := func(name string, match telemetry.Labels) reading { return delta(t.s0, t.s1, name, match) }
	wall := t.window.wall.Seconds()
	var busy float64
	for _, stage := range t.process {
		busy += d("ff_stage_service_seconds", telemetry.Labels{"pipeline": t.pipeline, "stage": stage}).sum
	}
	v["core.process_busy_share"] = ratio(busy, wall*float64(runtime.GOMAXPROCS(0)))
	v["core.sink_busy_share"] = ratio(d("ff_stage_service_seconds", telemetry.Labels{"pipeline": t.pipeline, "stage": t.sinkStage}).sum, wall)
	if t.sp.svc == svcFile {
		return v
	}
	svc := d("server_service_seconds", nil)
	v["server.service_mean_ms"] = ratio(svc.sum*1000, float64(svc.count))
	v["server.wait_mean_ms"] = v["server.service_mean_ms"] - stageSumMs
	v["server.net_mean_ms"] = clientMeanMs - v["server.service_mean_ms"]
	v["server.rejected"] = d("server_requests_total", telemetry.Labels{"verdict": "rejected"}).value
	batches := d("server_batches_sealed_total", nil).value
	v["server.batch_fill"] = ratio(d("server_batch_bytes_total", nil).value, batches*(1<<20))
	v["server.batches_per_req"] = ratio(batches, float64(svc.count))
	v["server.seal_linger_share"] = ratio(d("server_batches_sealed_total", telemetry.Labels{"trigger": "linger"}).value, batches)
	v["server.seal_full_share"] = ratio(d("server_batches_sealed_total", telemetry.Labels{"trigger": "full"}).value, batches)
	pool := telemetry.Labels{"pool": "server.payload"}
	v["pool.miss_share"] = ratio(d("pool_misses", pool).value, d("pool_gets", pool).value)
	// Simulated device seconds, per batch, in their own rows: never summed
	// with a wall figure.
	v["gpu.kernel_virtual_ms"] = ratio(d("gpu_kernel_seconds", nil).sum*1000, batches)
	v["gpu.copy_virtual_ms"] = ratio((d("gpu_h2d_seconds", nil).sum+d("gpu_d2h_seconds", nil).sum)*1000, batches)
	return v
}
