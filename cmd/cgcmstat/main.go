// Command cgcmstat is the performance-introspection CLI: it computes
// the exact critical path of a run on the simulated machine, classifies
// the limiting factor the way the paper's Table 3 does, and replays the
// operation graph under counterfactual weights to bound what each
// optimization could buy.
//
// It consumes either a mini-C source file (compiled and executed live,
// optimized CGCM) or a Chrome trace-event JSON file exported earlier
// with -trace-out — traces are analyzable artifacts, not just pictures.
//
// Usage:
//
//	cgcmstat file.c                  # critical path, lanes, queues, overlap
//	cgcmstat trace.json              # same, from an exported trace
//	cgcmstat -async file.c           # analyze the overlapped schedule
//	cgcmstat -whatif zero-comm file.c   # one counterfactual replay
//	cgcmstat -diff file.c            # sync vs -async, delta attribution
//	cgcmstat -diff a.json b.json     # attribute the delta of two traces
//	cgcmstat -gate                   # CI gate: invariants across the suite
//
// It is also the query CLI over the durable run-record store the other
// commands append to with -runlog (default store: .cgcm/runs):
//
//	cgcmstat -history                # trend table per program: wall, host
//	                                 # time, comm bytes, overlap, limiting
//	cgcmstat -regress atax-1 atax-2  # attribute the wall delta between two
//	                                 # stored records: span classes (exact)
//	                                 # plus per-allocation-unit changes with
//	                                 # the responsible pass or remark
//	cgcmstat -report out.html        # self-contained byte-deterministic
//	                                 # HTML report over the whole store
//	cgcmstat -runlog-gate            # CI gate: record the suite sync+async,
//	                                 # assert exact regression attribution
//	                                 # and report determinism
//	cgcmstat -version                # print build identity and exit
//
// The execution flags (-async, -gpu-mem, -faults, -ablate, -workers,
// and the rest of the shared set) shape the live run; they are ignored
// for .json inputs and stored records.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cgcm/internal/bench"
	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/critpath"
	"cgcm/internal/runlog"
	"cgcm/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("cgcmstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	whatif := fs.String("whatif", "", "replay one scenario: zero-comm | gpu-2x | perfect-overlap | identity (default: all)")
	diff := fs.Bool("diff", false, "attribute a wall-time delta: two inputs, or one source run sync vs async")
	gate := fs.Bool("gate", false, "CI gate: verify the critical-path invariants on the whole bench suite")
	workers := fs.Int("workers", 0, "kernel-engine worker goroutines per launch (0 = GOMAXPROCS)")
	var ablate core.PassSet
	fs.Var(&ablate, "ablate", "comma-separated passes to skip (doall, gluekernel, allocapromo, mappromo, overlap)")
	history := fs.Bool("history", false, "list the run-record store as a per-program trend table")
	regress := fs.Bool("regress", false, "attribute the wall delta between two stored records (two record IDs or paths)")
	report := fs.String("report", "", "write a self-contained HTML report over the run-record store to this file")
	runlogGate := fs.Bool("runlog-gate", false, "CI gate: record the suite sync and async, verify exact -regress attribution and report determinism")
	runf := cli.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmstat")
		return 0
	}
	stopProfiles, ok := runf.StartHostProfiles(stderr, "cgcmstat")
	if !ok {
		return 1
	}
	defer stopProfiles(&code)
	spec, perr := runf.FaultSpec()
	if perr != nil {
		fmt.Fprintf(stderr, "cgcmstat: -faults: %v\n", perr)
		return 2
	}
	opts := core.Options{
		Strategy: core.CGCMOptimized, Workers: *workers, Ablate: ablate,
		Async: runf.Async, GPUMemBytes: runf.GPUMem, FaultSpec: spec,
	}
	// The store the record-query modes read; -runlog overrides it, the
	// same flag the producing commands use to choose where they append.
	storeDir := runf.Runlog
	if storeDir == "" {
		storeDir = runlog.DefaultDir
	}

	if *runlogGate {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cgcmstat -runlog-gate")
			return 2
		}
		return runRunlogGate(stdout, stderr)
	}

	if *history {
		return runHistory(stdout, stderr, storeDir)
	}

	if *regress {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: cgcmstat -regress <record-a> <record-b>   (IDs, unique prefixes, or record paths)")
			return 2
		}
		return runRegress(stdout, stderr, storeDir, fs.Arg(0), fs.Arg(1))
	}

	if *report != "" {
		return runReport(stdout, stderr, storeDir, *report)
	}

	if *gate {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: cgcmstat -gate")
			return 2
		}
		return runGate(stdout, stderr, opts)
	}

	if *diff {
		return runDiff(stdout, stderr, fs.Args(), opts)
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cgcmstat [-whatif scenario | -diff | -gate | -history | -regress a b | -report out.html | -runlog-gate] [-async] file.c|trace.json")
		return 2
	}
	a, err := load(fs.Arg(0), opts)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	var b strings.Builder
	a.Render(&b)
	if *whatif != "" {
		sc, err := critpath.ParseScenario(*whatif)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
			return 2
		}
		renderPredictions(&b, a, []critpath.Prediction{a.WhatIf(sc)})
	} else {
		renderPredictions(&b, a, a.WhatIfAll())
	}
	fmt.Fprint(stdout, b.String())
	return 0
}

// load produces an analysis from either input form: an exported Chrome
// trace (wall = the latest span end) or a live optimized run.
func load(path string, opts core.Options) (*critpath.Analysis, error) {
	if strings.HasSuffix(path, ".json") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		spans, _, err := trace.ReadChrome(f)
		if err != nil {
			return nil, err
		}
		if len(spans) == 0 {
			return nil, fmt.Errorf("%s: trace has no machine spans", path)
		}
		return critpath.Analyze(spans, critpath.WallOf(spans))
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, _, err := analyzeLive(path, string(src), opts)
	return a, err
}

// analyzeLive compiles and runs one source under opts with a tracer
// attached and analyzes the spans.
func analyzeLive(name, src string, opts core.Options) (*critpath.Analysis, *core.Report, error) {
	opts.Tracer = trace.New()
	rep, err := core.CompileAndRun(name, src, opts)
	if err != nil {
		return nil, nil, err
	}
	a, err := critpath.Analyze(rep.Spans, rep.Stats.Wall)
	if err != nil {
		return nil, nil, err
	}
	return a, rep, nil
}

func renderPredictions(b *strings.Builder, a *critpath.Analysis, preds []critpath.Prediction) {
	fmt.Fprintf(b, "what-if replay (lower bounds; measured wall %.2fus):\n", a.Wall*1e6)
	for _, p := range preds {
		fmt.Fprintf(b, "  %-16s predicted %10.2fus   speedup bound %6.2fx\n",
			p.Scenario, p.Wall*1e6, p.Speedup)
	}
}

// runDiff attributes the wall delta between two runs. With two
// arguments, each loads by its own form; with one source argument, the
// comparison is the same program sync versus async — the question PR 6
// left open: did overlap actually change what is on the critical path?
func runDiff(stdout, stderr io.Writer, args []string, opts core.Options) int {
	var a, b *critpath.Analysis
	var labelA, labelB string
	var err error
	switch len(args) {
	case 1:
		if strings.HasSuffix(args[0], ".json") {
			fmt.Fprintln(stderr, "cgcmstat: -diff with one input needs a source file (sync vs async); pass two traces to diff files")
			return 2
		}
		var src []byte
		if src, err = os.ReadFile(args[0]); err != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
			return 1
		}
		labelA, labelB = "sync", "async"
		syncOpts, asyncOpts := opts, opts
		syncOpts.Async, asyncOpts.Async = false, true
		if a, _, err = analyzeLive(args[0], string(src), syncOpts); err == nil {
			b, _, err = analyzeLive(args[0], string(src), asyncOpts)
		}
	case 2:
		labelA, labelB = diffLabels(args[0], args[1])
		if a, err = load(args[0], opts); err == nil {
			b, err = load(args[1], opts)
		}
	default:
		fmt.Fprintln(stderr, "usage: cgcmstat -diff file.c | cgcmstat -diff a.json b.json")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	d := critpath.Diff(a, b)
	var out strings.Builder
	d.Render(&out, labelA, labelB)
	fmt.Fprintf(&out, "limiting factor: %s %s -> %s %s\n", labelA, a.Limiting, labelB, b.Limiting)
	if b.Overlap.Hidden > 0 {
		fmt.Fprintf(&out, "overlap: %.2fus of communication ran under other work in %s (efficiency %.0f%%)\n",
			b.Overlap.Hidden*1e6, labelB, 100*b.Overlap.Efficiency)
	}
	fmt.Fprint(stdout, out.String())
	return 0
}

// diffLabels shortens two input paths to distinct display labels: base
// names, widened by one parent directory when the bases collide (the
// common case of diffing <dir-sync>/p.json against <dir-async>/p.json).
func diffLabels(a, b string) (string, string) {
	la, lb := filepath.Base(a), filepath.Base(b)
	if la == lb {
		la = filepath.Join(filepath.Base(filepath.Dir(a)), la)
		lb = filepath.Join(filepath.Base(filepath.Dir(b)), lb)
	}
	return la, lb
}

// gateEps is the relative tolerance for float re-accumulation in the
// gate's sum and replay comparisons; path times themselves, and every
// cross-worker comparison, must match bit for bit.
const gateEps = 1e-9

// runGate verifies, for every bench program, sync and async, the
// package's contract: the critical path tiles [0, Stats.Wall] exactly;
// the path, limiting factor, and what-if predictions are bit-identical
// across engine worker counts; and the zero-comm replay never predicts
// a wall above the measured one.
func runGate(stdout, stderr io.Writer, opts core.Options) int {
	fail := 0
	fmt.Fprintf(stdout, "critical-path gate: invariant + worker stability, %d programs x {sync, async}\n", len(bench.All()))
	fmt.Fprintf(stdout, "%-16s %-6s %12s %10s %5s %12s\n", "program", "mode", "wall", "limiting", "segs", "zero-comm")
	for _, p := range bench.All() {
		for _, async := range []bool{false, true} {
			mode := "sync"
			if async {
				mode = "async"
			}
			bad := func(format string, args ...any) {
				fail++
				fmt.Fprintf(stderr, "cgcmstat: %s [%s]: %s\n", p.Name, mode, fmt.Sprintf(format, args...))
			}
			var base *critpath.Analysis
			var basePreds []critpath.Prediction
			for _, workers := range []int{1, 4} {
				o := opts
				o.Async, o.Workers = async, workers
				a, rep, err := analyzeLive(p.Name, p.Source, o)
				if err != nil {
					bad("%v", err)
					break
				}
				if err := a.Validate(); err != nil {
					bad("workers=%d: %v", workers, err)
					continue
				}
				if s := a.PathSum(); s < rep.Stats.Wall*(1-gateEps) || s > rep.Stats.Wall*(1+gateEps) {
					bad("workers=%d: path sums to %g, wall is %g", workers, s, rep.Stats.Wall)
				}
				preds := a.WhatIfAll()
				for _, pr := range preds {
					if pr.Scenario == critpath.ScenarioZeroComm && pr.Wall > rep.Stats.Wall*(1+gateEps) {
						bad("workers=%d: zero-comm predicts %g above measured %g", workers, pr.Wall, rep.Stats.Wall)
					}
				}
				if base == nil {
					base, basePreds = a, preds
					continue
				}
				switch {
				case a.Wall != base.Wall:
					bad("wall differs across workers: %g vs %g", a.Wall, base.Wall)
				case a.Limiting != base.Limiting:
					bad("limiting differs across workers: %s vs %s", a.Limiting, base.Limiting)
				case len(a.Path) != len(base.Path):
					bad("path length differs across workers: %d vs %d", len(a.Path), len(base.Path))
				default:
					for i := range a.Path {
						if a.Path[i] != base.Path[i] {
							bad("path segment %d differs across workers", i)
							break
						}
					}
					for i := range preds {
						if preds[i] != basePreds[i] {
							bad("%s prediction differs across workers", preds[i].Scenario)
						}
					}
				}
			}
			if base != nil {
				var zc float64
				for _, pr := range basePreds {
					if pr.Scenario == critpath.ScenarioZeroComm {
						zc = pr.Wall
					}
				}
				fmt.Fprintf(stdout, "%-16s %-6s %10.2fus %10s %5d %10.2fus\n",
					p.Name, mode, base.Wall*1e6, base.Limiting, len(base.Path), zc*1e6)
			}
		}
	}
	if fail > 0 {
		fmt.Fprintf(stderr, "cgcmstat: gate failed: %d violation(s)\n", fail)
		return 1
	}
	fmt.Fprintln(stdout, "gate passed: paths tile the wall, classifications and predictions are worker-independent, zero-comm bounds hold")
	return 0
}

// runHistory renders the run-record store as a per-program trend table:
// one line per record in store order, with the wall delta against the
// program's previous record.
func runHistory(stdout, stderr io.Writer, dir string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	recs, err := st.Records()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	if len(recs) == 0 {
		fmt.Fprintf(stdout, "no run records in %s (append some with -runlog on cgcmrun or cgcmbench)\n", dir)
		return 0
	}
	fmt.Fprintf(stdout, "run-record history: %s (%d records)\n", dir, len(recs))
	fmt.Fprintf(stdout, "%-20s %-28s %12s %8s %10s %10s %-9s %9s\n",
		"record", "options", "wall", "host", "comm", "overlap", "limiting", "vs prev")
	var prevProgram string
	var prevWall float64
	for _, r := range recs {
		limiting := "-"
		if r.Critpath != nil {
			limiting = r.Critpath.Limiting
		}
		trend := "-"
		if r.Program == prevProgram && prevWall > 0 {
			trend = fmt.Sprintf("%+8.2f%%", 100*(r.Stats.Wall-prevWall)/prevWall)
		}
		fmt.Fprintf(stdout, "%-20s %-28s %10.2fus %6.0fms %9dB %9dB %-9s %9s\n",
			r.ID, r.Options.Label(), r.Stats.Wall*1e6, float64(r.HostNS)/1e6,
			r.CommBytes(), r.Stats.OverlappedBytes, limiting, trend)
		prevProgram, prevWall = r.Program, r.Stats.Wall
	}
	return 0
}

// runRegress attributes the wall delta between two stored records: the
// exact span-class decomposition from their critical-path digests, then
// the per-allocation-unit communication changes with the responsible
// pass or blocking remark.
func runRegress(stdout, stderr io.Writer, dir, refA, refB string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	ra, err := st.Load(refA)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	rb, err := st.Load(refB)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	if ra.Program != rb.Program {
		fmt.Fprintf(stderr, "cgcmstat: warning: comparing different programs (%s vs %s)\n", ra.Program, rb.Program)
	}
	if ra.Critpath == nil || rb.Critpath == nil {
		fmt.Fprintln(stderr, "cgcmstat: -regress needs records with a critical-path digest (compile-only records have none)")
		return 1
	}
	d, err := critpath.DiffSummaries(*ra.Critpath, *rb.Critpath)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	var out strings.Builder
	fmt.Fprintf(&out, "regression attribution: %s (%s) -> %s (%s)\n",
		ra.ID, ra.Options.Label(), rb.ID, rb.Options.Label())
	d.Render(&out, ra.ID, rb.ID)
	fmt.Fprintf(&out, "limiting factor: %s %s -> %s %s\n", ra.ID, ra.Critpath.Limiting, rb.ID, rb.Critpath.Limiting)
	if d.Exact() {
		fmt.Fprintln(&out, "attribution is exact: per-class deltas sum to the wall delta with no residue")
	} else {
		fmt.Fprintln(&out, "attribution residue detected (records from an incompatible producer?)")
	}
	fmt.Fprintln(&out)
	runlog.RenderUnitDeltas(&out, ra.ID, rb.ID, runlog.DiffLedgers(ra, rb))
	fmt.Fprint(stdout, out.String())
	if !d.Exact() {
		return 1
	}
	return 0
}

// runReport renders the whole store as one self-contained HTML document.
func runReport(stdout, stderr io.Writer, dir, out string) int {
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	recs, err := st.Records()
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := runlog.WriteHTML(f, recs); err != nil {
		fmt.Fprintf(stderr, "cgcmstat: write report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s (%d records, %d programs)\n", out, len(recs), countPrograms(recs))
	return 0
}

// countPrograms counts distinct programs across records.
func countPrograms(recs []*runlog.Record) int {
	seen := make(map[string]bool)
	for _, r := range recs {
		seen[r.Program] = true
	}
	return len(seen)
}

// runRunlogGate is the CI gate over the run-record subsystem: it sweeps
// the bench suite twice into a throwaway store — synchronous transfers,
// then -async — and verifies that (1) for every program, -regress
// between the two stored records attributes the wall delta to span
// classes exactly, with zero residue, and (2) the HTML report over the
// store is byte-identical across exports.
func runRunlogGate(stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp("", "cgcm-runlog-gate-")
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	st, err := runlog.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
		return 1
	}
	prevRunlog, prevAsync := bench.Runlog, bench.Async
	defer func() { bench.Runlog, bench.Async = prevRunlog, prevAsync }()
	bench.Runlog = st
	for _, async := range []bool{false, true} {
		bench.Async = async
		if _, err := bench.RunAll(io.Discard); err != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
			return 1
		}
	}
	fail := 0
	fmt.Fprintf(stdout, "runlog gate: exact regression attribution, %d programs, sync -> async\n", len(bench.All()))
	fmt.Fprintf(stdout, "%-16s %12s %12s %12s %6s\n", "program", "sync wall", "async wall", "delta", "exact")
	for _, p := range bench.All() {
		ra, err := st.Load(p.Name + "-1")
		if err == nil {
			var rb *runlog.Record
			if rb, err = st.Load(p.Name + "-2"); err == nil {
				if ra.Critpath == nil || rb.Critpath == nil {
					fail++
					fmt.Fprintf(stderr, "cgcmstat: %s: stored record has no critical-path digest\n", p.Name)
					continue
				}
				var d *critpath.DiffResult
				if d, err = critpath.DiffSummaries(*ra.Critpath, *rb.Critpath); err == nil {
					ok := d.Exact()
					if !ok {
						fail++
						fmt.Fprintf(stderr, "cgcmstat: %s: class deltas do not sum to the wall delta\n", p.Name)
					}
					fmt.Fprintf(stdout, "%-16s %10.2fus %10.2fus %10.2fus %6v\n",
						p.Name, ra.Stats.Wall*1e6, rb.Stats.Wall*1e6,
						(rb.Stats.Wall-ra.Stats.Wall)*1e6, ok)
				}
			}
		}
		if err != nil {
			fail++
			fmt.Fprintf(stderr, "cgcmstat: %s: %v\n", p.Name, err)
		}
	}
	// Report determinism: two exports over freshly loaded records must be
	// byte-identical.
	var buf1, buf2 bytes.Buffer
	for i, buf := range []*bytes.Buffer{&buf1, &buf2} {
		recs, err := st.Records()
		if err != nil {
			fmt.Fprintf(stderr, "cgcmstat: %v\n", err)
			return 1
		}
		if err := runlog.WriteHTML(buf, recs); err != nil {
			fmt.Fprintf(stderr, "cgcmstat: report export %d: %v\n", i+1, err)
			return 1
		}
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		fail++
		fmt.Fprintln(stderr, "cgcmstat: HTML report is not byte-deterministic across exports")
	}
	if fail > 0 {
		fmt.Fprintf(stderr, "cgcmstat: runlog gate failed: %d violation(s)\n", fail)
		return 1
	}
	fmt.Fprintf(stdout, "runlog gate passed: attribution exact on every program, report deterministic (%d bytes)\n", buf1.Len())
	return 0
}
