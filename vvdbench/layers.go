package main

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Each workload gives them its own operation:
//
//	campaign     latency = one VVD.Estimate of the freshly evaluated model
//	             on a test frame (the paper's Table 1 inference time);
//	             throughput = campaign packets ÷ campaign_s, the time from
//	             config to the evaluated Fig. 12 result.
//	serve-camera latency = due time → reply of an open-loop Submit;
//	             throughput = closed-loop estimates/s (capacity).
//
// The latency tail is printed by every run but reported as a per-layer
// metric (e2e.latency_p99_ms): on a small shared host it follows the other
// tenants more than the code, so it cannot carry a bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// layerDef is a per-layer metric with the module it measures and the
// end-to-end metric and workload it should move. A traced run reports
// every one of them on every workload; a layer the workload does not
// exercise reads 0.
type layerDef struct {
	metricDef
	Module   string
	Moves    string // end-to-end metric(s) it should move
	Workload string
}

// Per-layer metric names for the CNN's trainable and pooling layers.
var nnLayerNames = []string{"conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "dense1", "dense2"}

var engineBatches = []string{"b1", "b8", "b32", "b1-p1", "b8-p1", "b32-p1"}

func perLayer() []layerDef {
	const (
		camp  = "campaign"
		cam   = "serve-camera"
		fan   = "serve-camera (traced fan-out phase)"
		all   = "all"
		thr   = "throughput_per_s"
		lat   = "latency_p50_ms, e2e.latency_p99_ms"
		p99   = "e2e.latency_p99_ms"
		setup = "setup_s"
		fetch = "fan-out fetch latency (printed, not gated)"
	)
	l := func(name, unit, better, module, moves, workload string) layerDef {
		return layerDef{metricDef{name, unit, better}, module, moves, workload}
	}
	defs := []layerDef{
		l("dataset.generate_s", "s", "lower", "dataset", thr, camp),
		l("dataset.packets_per_s", "packets/s", "higher", "dataset", thr, camp),
		l("dataset.stage_coverage", "ratio", "higher", "dataset", "none: replay validity check", camp),
		l("camera.render_us", "us", "lower", "camera", thr+" (campaign); setup_s (serve)", all),
		l("channel.cir_us", "us", "lower", "channel", thr, camp),
		l("channel.transmit_us", "us", "lower", "channel", thr, camp),
		l("estimate.sync_us", "us", "lower", "estimate", thr, camp),
		l("estimate.ls_truth_us", "us", "lower", "estimate", thr, camp),
		l("estimate.ls_preamble_us", "us", "lower", "estimate", thr, camp),
		l("store.kv_commit_ms", "ms", "lower", "store", thr, camp),
		l("store.kv_commit_mb_per_s", "MB/s", "higher", "store", thr, camp),
		l("store.kv_reopen_ms", "ms", "lower", "store", thr, camp),
		l("store.campaign_read_ms", "ms", "lower", "store", thr, camp),
		l("registry.put_ms", "ms", "lower", "store/registry", thr+" (campaign); setup_s (serve)", all),
		l("registry.load_ms", "ms", "lower", "store/registry", setup+" (serve)", all),
		l("nn.train_samples_per_s", "samples/s", "higher", "nn", thr, camp),
		l("nn.fit_step_ms", "ms", "lower", "nn", thr, camp),
		l("nn.optimizer_ms", "ms", "lower", "nn", thr, camp),
		l("nn.alloc_mb_per_step", "MB", "lower", "nn", thr+", peak_heap_mb", camp),
	}
	for _, n := range nnLayerNames {
		defs = append(defs,
			l("nn."+n+".fwd_ms", "ms", "lower", "nn", thr+" (campaign training)", all),
			l("nn."+n+".bwd_ms", "ms", "lower", "nn", thr+" (campaign training)", all))
	}
	defs = append(defs,
		l("experiments.eval_decodes_per_s", "decodes/s", "higher", "experiments", thr, camp),
		l("kalman.train_ms", "ms", "lower", "kalman", thr, camp),
		l("core.estimate_us", "us", "lower", "core", lat+" (campaign)", all),
		l("estimate.decode_us", "us", "lower", "estimate", thr, camp),
	)
	for _, b := range engineBatches {
		defs = append(defs, l("nn.engine_us_per_frame."+b, "us", "lower", "nn", thr+", latency_p50_ms (serve-camera)", all))
	}
	defs = append(defs,
		l("nn.engine_allocs.b8", "count", "lower", "nn", thr+", latency_p50_ms (serve-camera)", all),
		l("serve.session_ms.p50", "ms", "lower", "serve", lat, cam),
		l("serve.session_ms.p99", "ms", "lower", "serve", lat, cam),
		l("serve.wait_ms.p50", "ms", "lower", "serve", p99, cam),
		l("serve.wait_ms.p99", "ms", "lower", "serve", p99, cam),
		l("serve.batch_mean", "frames", "higher", "serve", thr, cam),
		l("serve.frames_dropped_share", "fraction", "lower", "serve", thr, cam),
		l("serve.estimator_busy_share", "fraction", "lower", "serve", thr, cam),
		l("serve.fetch_us.p50", "us", "lower", "serve", fetch, fan),
		l("serve.fetch_us.p99", "us", "lower", "serve", fetch, fan),
		l("wire.client_hop_ms.p50", "ms", "lower", "wire", lat, cam),
		l("wire.client_hop_ms.p99", "ms", "lower", "wire", lat, cam),
		l("wire.server_sheds", "count", "lower", "wire", "failed/attempted", cam),
		l("shard.forward_ms.p50", "ms", "lower", "shard", lat+" (no change on the fan-out phase: no router)", cam),
		l("shard.forward_ms.p99", "ms", "lower", "shard", lat+" (no change on the fan-out phase: no router)", cam),
		l("shard.sheds_share", "fraction", "lower", "shard", "failed/attempted", cam),
		l("shard.errors", "count", "lower", "shard", "failed/attempted", cam),
		l("runtime.gc_pause_p99_ms", "ms", "lower", "runtime", p99, all),
		l("runtime.gc_cpu_share", "fraction", "lower", "runtime", p99, all),
		l("host.steal_share", "fraction", "lower", "host", "none: validity check", all),
		l("loadgen.late_p99_ms", "ms", "lower", "vvdbench", "none: validity check", cam),
		l("e2e.latency_p99_ms", "ms", "lower", "all", "none: the tail of latency_p50_ms's operation, not gated", all),
		l("run.fail_share", "fraction", "lower", "all", "failed/attempted", all),
		l("trace_overhead", "fraction", "lower", "vvdbench", "none: cost of tracing", all),
	)
	return defs
}
