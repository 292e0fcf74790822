package main

import (
	"encoding/json"
	"fmt"
	"time"

	"cgcm/internal/bench"
)

// metricDef names one reported metric and its unit. The catalogues
// below are the contract with BENCHMARK.json (a self-test keeps them in
// step).
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload's untraced run. Each is
// defined per workload in README.md: a sweep is one pass over the
// workload's matrix, an op is one job (closed loop) or one request's
// time in service (serve-mixed).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"rss_p90_mb", "MB"},
	{"sweep_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// layerMetrics are reported by every workload's traced run. A layer
// the workload does not pass through reports 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"minic.parse_ms", "ms"},
		{"minic.sema_ms", "ms"},
		{"irbuild.ms", "ms"},
		{"passes.constfold_ms", "ms"},
		{"doall.ms", "ms"},
		{"passes.commmgmt_ms", "ms"},
		{"passes.gluekernel_ms", "ms"},
		{"passes.allocapromo_ms", "ms"},
		{"passes.mappromo_ms", "ms"},
		{"passes.overlap_ms", "ms"},
		{"core.compile_ms", "ms"},
		{"doall.loops_parallelized", "count"},
		{"passes.commmgmt.maps_inserted", "count"},
		{"passes.gluekernel.outlined", "count"},
		{"passes.allocapromo.promoted", "count"},
		{"passes.mappromo.promotions", "count"},
		{"passes.overlap.sites", "count"},
		{"core.run_ms", "ms"},
		{"interp.seq_ns_per_op", "ns"},
		{"interp.ie_ns_per_op", "ns"},
		{"interp.opt_ns_per_op", "ns"},
		{"interp.steps", "count"},
		{"interp.engine_speedup", "x"},
	}
	for _, p := range bench.All() {
		defs = append(defs, metricDef{"run." + p.Name + "_ms", "ms"})
	}
	return append(defs, []metricDef{
		{"machine.cpu_ops", "count"},
		{"machine.gpu_ops", "count"},
		{"machine.kernels", "count"},
		{"machine.htod_bytes", "bytes"},
		{"machine.dtoh_bytes", "bytes"},
		{"machine.overlapped_bytes", "bytes"},
		{"machine.injected_faults", "count"},
		{"machine.fallback_kernels", "count"},
		{"runtime.maps", "count"},
		{"runtime.unmaps", "count"},
		{"runtime.releases", "count"},
		{"runtime.epoch_skips", "count"},
		{"runtime.residency_skips", "count"},
		{"runtime.evictions", "count"},
		{"runtime.retries", "count"},
		{"runtime.skip_ratio", "ratio"},
		{"sim.geomean_opt_x", "x"},
		{"trace.spans", "count"},
		{"trace.write_chrome_ms", "ms"},
		{"trace.chrome_mb", "MB"},
		{"critpath.analyze_ms", "ms"},
		{"runlog.append_ms", "ms"},
		{"remarks.count", "count"},
		{"obs.run_overhead_pct", "%"},
		{"server.decode_us", "us"},
		{"server.queue_ms_p50", "ms"},
		{"server.queue_ms_p95", "ms"},
		{"server.service_ms_p50", "ms"},
		{"server.miss_extra_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.cache_dedups", "count"},
		{"server.shed", "count"},
		{"metrics.scrape_ms", "ms"},
		{"loadgen.late_ms_p95", "ms"},
		{"serve.low.lat_p50_ms", "ms"},
		{"serve.low.lat_p95_ms", "ms"},
		{"serve.high.lat_p50_ms", "ms"},
		{"serve.high.lat_p95_ms", "ms"},
		{"serve.max_rps", "1/s"},
		{"host.alloc_mb", "MB"},
		{"host.gc_pause_ms", "ms"},
		{"trace.coverage_pct", "%"},
		{"trace.recorder_overhead_pct", "%"},
	}...)
}()

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	errs              []string // one line per failed operation
	info              []string // sample counts and other notes, printed before the result
	e2e, layer        map[string]float64
	timedWall         time.Duration
	rss               *rssSampler // resident-set samples over the timed phase
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// op records one attempted operation and its failure, if any.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// render builds the final JSON line: the end-to-end metrics, or with
// traced set the per-layer metrics.
func (r *result) render(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
}
