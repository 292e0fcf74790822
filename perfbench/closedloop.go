package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cgcm/internal/bench"
	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/machine"
	"cgcm/internal/metrics"
	"cgcm/internal/runlog"
	runtimelib "cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// agg collects per-cell samples of named quantities. A sweep total is
// the sum over cells of each cell's median, so a run that repeated some
// cells more often than others still reports exactly one sweep.
type agg struct {
	samples map[string]map[string][]float64
}

func newAgg() *agg { return &agg{samples: make(map[string]map[string][]float64)} }

func (a *agg) add(name, key string, v float64) {
	m := a.samples[name]
	if m == nil {
		m = make(map[string][]float64)
		a.samples[name] = m
	}
	m[key] = append(m[key], v)
}

// sweep returns the sum over cells of the per-cell median.
func (a *agg) sweep(name string) float64 {
	var s float64
	for _, xs := range a.samples[name] {
		s += median(xs)
	}
	return s
}

// medians returns the per-cell medians, in key order.
func (a *agg) medians(name string) []float64 {
	m := a.samples[name]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = median(m[k])
	}
	return out
}

func (a *agg) cell(name, key string) float64 { return median(a.samples[name][key]) }

// phaseMetrics maps a compile phase (Program.Phases) to its host-time
// metric and, for the passes that count their work, its activity metric.
var phaseMetrics = map[string][2]string{
	"parse":       {"minic.parse_ms", ""},
	"sema":        {"minic.sema_ms", ""},
	"irbuild":     {"irbuild.ms", ""},
	"constfold":   {"passes.constfold_ms", ""},
	"doall":       {"doall.ms", "doall.loops_parallelized"},
	"commmgmt":    {"passes.commmgmt_ms", "passes.commmgmt.maps_inserted"},
	"gluekernel":  {"passes.gluekernel_ms", "passes.gluekernel.outlined"},
	"allocapromo": {"passes.allocapromo_ms", "passes.allocapromo.promoted"},
	"mappromo":    {"passes.mappromo_ms", "passes.mappromo.promotions"},
	"overlap":     {"passes.overlap_ms", "passes.overlap.sites"},
}

// loopKind selects what one closed-loop job does.
type loopKind int

const (
	// evalJob compiles and runs one cell, sync, observability off: the
	// paper's evaluation as cgcmbench runs it.
	evalJob loopKind = iota
	// observedJob compiles and runs with async and every observability
	// switch on, then analyzes the critical path, exports the Chrome
	// trace to memory and appends a run record: what a cgcmstat user pays.
	observedJob
	// compileJob only compiles: the cgcmc use.
	compileJob
)

// closedLoop is a one-client closed-loop workload over a matrix of
// cells: the next job starts when the previous one returns.
type closedLoop struct {
	kind  loopKind
	cells []cell
	gold  goldens
	base  map[string]baselineRow // nil for compileJob

	agg     *agg
	simWall map[string]float64 // cell key -> simulated wall
	shape   map[string]string  // compileJob: cell key -> first compile's census

	storeRoot string // observedJob: throwaway run-record stores live here
	store     *runlog.Store
}

func setupEvalSync(cfg *config) (state, error) {
	strats := []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized}
	return newClosedLoop(cfg, evalJob, matrix(strats, false), "BENCH_0.json")
}

func setupObserved(cfg *config) (state, error) {
	strats := []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized}
	return newClosedLoop(cfg, observedJob, matrix(strats, true), "BENCH_1.json")
}

func setupCompileAll(cfg *config) (state, error) {
	strats := []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized}
	cells := matrix(strats, false)
	for _, p := range bench.All() {
		cells = append(cells, cell{prog: p, strat: core.CGCMOptimized, async: true})
	}
	return newClosedLoop(cfg, compileJob, cells, "")
}

// newClosedLoop loads the checks' references and runs one warm-up job,
// so lazily initialized code paths are paid for in set-up.
func newClosedLoop(cfg *config, kind loopKind, cells []cell, baseline string) (*closedLoop, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	w := &closedLoop{kind: kind, cells: cells, gold: g, agg: newAgg(),
		simWall: make(map[string]float64), shape: make(map[string]string)}
	if baseline != "" {
		if w.base, err = loadBaseline(cfg.root, baseline); err != nil {
			return nil, err
		}
	}
	if kind == observedJob {
		if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
			return nil, err
		}
		if w.storeRoot, err = os.MkdirTemp(cfg.scratch, "runlog-"); err != nil {
			return nil, err
		}
		if err := w.newStore(0); err != nil {
			w.close()
			return nil, err
		}
	}
	atax, _ := bench.ByName("atax")
	warm := cell{prog: atax, strat: core.CGCMOptimized, async: kind == observedJob}
	if err := w.job(&config{workers: cfg.workers}, warm, 0, -1); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	w.agg, w.simWall, w.shape = newAgg(), make(map[string]float64), make(map[string]string)
	return w, nil
}

// newStore replaces the run-record store with a fresh one, so the
// store's index (rewritten on every append) stays one pass long.
func (w *closedLoop) newStore(pass int) error {
	if w.store != nil {
		if err := os.RemoveAll(w.store.Dir()); err != nil {
			return err
		}
	}
	st, err := runlog.Open(filepath.Join(w.storeRoot, fmt.Sprintf("pass-%d", pass)))
	w.store = st
	return err
}

func (w *closedLoop) close() {
	if w.storeRoot != "" {
		os.RemoveAll(w.storeRoot)
	}
}

// run executes seeded shuffled passes over the matrix until at least one
// full pass has completed and the time budget is spent.
func (w *closedLoop) run(cfg *config, res *result) error {
	rng := newRand(cfg.seed, "job-order")
	root := cfg.rec.begin("workload", -1, 0)
	t0 := time.Now()
	var req int64
	passes := 0
loop:
	for pass := 0; ; pass++ {
		if pass > 0 && w.kind == observedJob {
			if err := w.newStore(pass); err != nil {
				return err
			}
		}
		for _, i := range rng.Perm(len(w.cells)) {
			if pass > 0 && time.Since(t0) >= cfg.budget {
				break loop
			}
			req++
			res.op(w.job(cfg, w.cells[i], req, root))
		}
		passes++
	}
	res.timedWall = time.Since(t0)
	cfg.rec.end(root)
	res.note("jobs=%d full_passes=%d cells=%d timed_s=%.3f", req, passes, len(w.cells), res.timedWall.Seconds())
	return w.report(cfg, res, root)
}

// job runs one cell and checks its outputs. Timings are recorded
// whether or not the recorder is on.
func (w *closedLoop) job(cfg *config, c cell, req int64, parent int) error {
	rec, key := cfg.rec, c.key()
	jid := rec.begin("job", parent, req)
	defer rec.end(jid)

	opts := core.Options{Strategy: c.strat, Workers: cfg.workers, Async: c.async}
	var tr *trace.Tracer
	var reg *metrics.Registry
	switch {
	case w.kind == observedJob:
		tr, reg = trace.New(), metrics.New()
		opts.Tracer, opts.Profile, opts.Metrics, opts.Remarks = tr, true, reg, true
	case cfg.rec != nil:
		// The traced run reads the interpreter's step count from a
		// per-run registry.
		reg = metrics.New()
	}
	var prog *core.Program
	var err error
	dc := rec.time("core.Compile", jid, req, func() { prog, err = core.Compile(c.prog.Name, c.prog.Source, opts) })
	if err != nil {
		return fmt.Errorf("%s: compile: %w", key, err)
	}
	w.agg.add("core.compile_ms", key, ms(dc))
	for _, ph := range prog.Phases() {
		m := phaseMetrics[ph.Name]
		w.agg.add(m[0], key, float64(ph.HostNS)/1e6)
		if m[1] != "" {
			w.agg.add(m[1], key, float64(ph.Activity))
		}
	}
	if w.kind == compileJob {
		w.agg.add("job", key, ms(dc))
		return w.checkShape(key, prog)
	}

	var rep *core.Report
	dr := rec.time("Program.Run", jid, req, func() { rep, err = prog.RunWith(core.RunConfig{Metrics: reg}) })
	if err != nil {
		return fmt.Errorf("%s: run: %w", key, err)
	}
	job := dc + dr
	if w.kind == observedJob {
		var a *critpath.Analysis
		da := rec.time("critpath.Analyze", jid, req, func() { a, err = critpath.Analyze(rep.Spans, rep.Stats.Wall) })
		if err != nil {
			return fmt.Errorf("%s: critical path: %w", key, err)
		}
		var buf bytes.Buffer
		dw := rec.time("trace.WriteChrome", jid, req, func() { err = trace.WriteChrome(&buf, tr) })
		if err != nil {
			return fmt.Errorf("%s: chrome export: %w", key, err)
		}
		hostNS := job.Nanoseconds()
		dl := rec.time("runlog.Append", jid, req, func() {
			_, err = w.store.Append(cli.NewRunRecord(c.prog.Name, opts, rep, hostNS))
		})
		if err != nil {
			return fmt.Errorf("%s: run record: %w", key, err)
		}
		job += da + dw + dl
		w.agg.add("critpath.analyze_ms", key, ms(da))
		w.agg.add("trace.write_chrome_ms", key, ms(dw))
		w.agg.add("trace.chrome_mb", key, float64(buf.Len())/(1<<20))
		w.agg.add("runlog.append_ms", key, ms(dl))
		w.agg.add("trace.spans", key, float64(len(rep.Spans)))
		w.agg.add("remarks.count", key, float64(len(rep.Remarks)))
		if row := w.base[c.prog.Name]; c.strat == core.CGCMOptimized && a.Limiting != row.Limiting {
			return fmt.Errorf("%s: critical path limited by %q, baseline %q", key, a.Limiting, row.Limiting)
		}
	}
	w.agg.add("job", key, ms(job))
	w.recordRun(key, c, dr, rep)

	if err := w.gold.check(c.prog.Name, rep.Output); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	row, ok := w.base[c.prog.Name]
	if err := checkSim(row, ok, c.strat, rep); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// recordRun folds one run's host time and its machine and runtime
// counters into the aggregate.
func (w *closedLoop) recordRun(key string, c cell, d time.Duration, rep *core.Report) {
	st, rt := rep.Stats, rep.RTStats
	s := stratName(c.strat)
	w.agg.add("core.run_ms", key, ms(d))
	w.agg.add("run."+s, key, ms(d))
	ops := st.CPUOps + st.GPUOps
	if c.strat == core.Sequential {
		ops = st.CPUOps
	}
	w.agg.add("ops."+s, key, float64(ops))
	w.agg.add("interp.steps", key, rep.Metrics.Gauge("interp.steps"))
	w.simWall[key] = st.Wall
	addCounters(w.agg, key, st, rt)
}

// counterNames are the machine (Stats) and runtime (RTStats) counters
// reported per sweep.
var counterNames = []string{
	"machine.cpu_ops", "machine.gpu_ops", "machine.kernels", "machine.htod_bytes", "machine.dtoh_bytes",
	"machine.overlapped_bytes", "machine.injected_faults", "machine.fallback_kernels",
	"runtime.maps", "runtime.unmaps", "runtime.releases", "runtime.epoch_skips",
	"runtime.residency_skips", "runtime.evictions", "runtime.retries",
}

// addCounters records one run's counterNames values under key.
func addCounters(a *agg, key string, st machine.Stats, rt runtimelib.Stats) {
	for i, v := range []int64{
		st.CPUOps, st.GPUOps, st.NumKernels, st.BytesHtoD, st.BytesDtoH,
		st.OverlappedBytes, st.InjectedFaults, st.FallbackKernels,
		rt.Maps, rt.Unmaps, rt.Releases, rt.EpochSkips,
		rt.ResidencySkips, rt.Evictions, rt.Retries,
	} {
		a.add(counterNames[i], key, float64(v))
	}
}

// skipRatio is the share of map and unmap calls the runtime skipped.
func skipRatio(L map[string]float64) float64 {
	n := L["runtime.maps"] + L["runtime.unmaps"]
	if n == 0 {
		return 0
	}
	return (L["runtime.epoch_skips"] + L["runtime.residency_skips"]) / n
}

// checkShape requires every compile of a cell to produce the same
// module census: kernels, launch sites and per-pass activity.
func (w *closedLoop) checkShape(key string, prog *core.Program) error {
	shape := fmt.Sprintf("kernels=%d launch_sites=%d", prog.Kernels(), prog.LaunchSites())
	for _, ph := range prog.Phases() {
		shape += fmt.Sprintf(" %s=%d", ph.Name, ph.Activity)
	}
	prev, ok := w.shape[key]
	if !ok {
		w.shape[key] = shape
		return nil
	}
	if prev != shape {
		return fmt.Errorf("%s: compile census changed between passes: %q then %q", key, prev, shape)
	}
	return nil
}

// report derives the metrics from the aggregate.
func (w *closedLoop) report(cfg *config, res *result, root int) error {
	a := w.agg
	sweepMS := a.sweep("job")
	jobs := a.medians("job")
	p50 := median(jobs)
	p90, q90, err := tailQuantile(jobs, 0.90)
	if err != nil {
		return err
	}
	res.e2e["sweep_s"] = sweepMS / 1000
	res.e2e["op_p50_ms"] = p50
	res.e2e["op_p90_ms"] = p90
	res.e2e["ops_per_s"] = float64(len(w.cells)) / (sweepMS / 1000)
	res.note("op percentiles over %d per-cell medians; op_p90_ms is quantile %.4f", len(jobs), q90)
	if cfg.rec == nil {
		return nil
	}

	L := res.layer
	for _, m := range phaseMetrics {
		L[m[0]] = a.sweep(m[0])
		if m[1] != "" {
			L[m[1]] = a.sweep(m[1])
		}
	}
	sums := []string{
		"core.compile_ms", "core.run_ms", "interp.steps", "critpath.analyze_ms",
		"trace.write_chrome_ms", "trace.chrome_mb", "runlog.append_ms", "trace.spans", "remarks.count",
	}
	for _, name := range append(sums, counterNames...) {
		L[name] = a.sweep(name)
	}
	L["runtime.skip_ratio"] = skipRatio(L)
	for _, s := range []string{"seq", "ie", "opt"} {
		if ops := a.sweep("ops." + s); ops > 0 {
			L["interp."+s+"_ns_per_op"] = a.sweep("run."+s) * 1e6 / ops
		}
	}
	if w.kind != compileJob {
		suffix := "/opt"
		if w.kind == observedJob {
			suffix += "+async"
		}
		for _, p := range bench.All() {
			L["run."+p.Name+"_ms"] = a.cell("run.opt", p.Name+suffix)
		}
	}
	spans, _ := cfg.rec.snapshot()
	L["trace.coverage_pct"] = 100 * coverage(spans, root)

	switch w.kind {
	case evalJob:
		var speedups []float64
		for _, p := range bench.All() {
			speedups = append(speedups, w.simWall[p.Name+"/seq"]/w.simWall[p.Name+"/opt"])
		}
		L["sim.geomean_opt_x"] = geomean(speedups)
		sp, err := engineSpeedup(cfg, w.gold)
		res.op(err)
		L["interp.engine_speedup"] = sp
	case observedJob:
		pct, err := w.observeOverhead(cfg)
		res.op(err)
		L["obs.run_overhead_pct"] = pct
	}
	return nil
}

// engineSpeedup times gemm's optimized run on one engine worker and on
// nproc workers (alternating, median of three each) and returns the
// ratio.
func engineSpeedup(cfg *config, gold goldens) (float64, error) {
	gemm, _ := bench.ByName("gemm")
	var times [2][]float64
	var progs [2]*core.Program
	for i, n := range []int{1, cfg.workers} {
		p, err := core.Compile(gemm.Name, gemm.Source, core.Options{Strategy: core.CGCMOptimized, Workers: n})
		if err != nil {
			return 0, fmt.Errorf("engine speedup: %w", err)
		}
		progs[i] = p
	}
	for rep := 0; rep < 3; rep++ {
		for i, p := range progs {
			t0 := time.Now()
			r, err := p.Run()
			d := ms(time.Since(t0))
			if err == nil {
				err = gold.check(gemm.Name, r.Output)
			}
			if err != nil {
				return 0, fmt.Errorf("engine speedup: %w", err)
			}
			times[i] = append(times[i], d)
		}
	}
	return median(times[0]) / median(times[1]), nil
}

// observeOverhead runs every program's optimized async run once with
// observability off and compares its host time with the observed runs
// of the timed phase.
func (w *closedLoop) observeOverhead(cfg *config) (float64, error) {
	var plain, observed float64
	for _, p := range bench.All() {
		prog, err := core.Compile(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized, Workers: cfg.workers, Async: true})
		if err != nil {
			return 0, fmt.Errorf("plain run %s: %w", p.Name, err)
		}
		t0 := time.Now()
		rep, err := prog.Run()
		plain += ms(time.Since(t0))
		if err == nil {
			err = w.gold.check(p.Name, rep.Output)
		}
		if err != nil {
			return 0, fmt.Errorf("plain run %s: %w", p.Name, err)
		}
		observed += w.agg.cell("run.opt", p.Name+"/opt+async")
	}
	return 100 * (observed - plain) / plain, nil
}
