// Command cgcmbench regenerates the paper's evaluation artifacts: the
// applicability comparison (Table 1), the execution schedules (Figure 2),
// the program-characteristics table (Table 3), and the whole-program
// speedups (Figure 4). It also maintains performance baselines: a run
// can be frozen into a schema-versioned JSON document and later runs
// diffed against it, failing on simulated-wall regressions.
//
// Usage:
//
//	cgcmbench              # everything
//	cgcmbench -table1      # just the applicability comparison
//	cgcmbench -fig2        # just the schedules
//	cgcmbench -table3      # just program characteristics
//	cgcmbench -fig4        # just the speedups
//	cgcmbench -program lu  # one program, all four systems
//	cgcmbench -ledger      # per-program communication-ledger summary
//	cgcmbench -json        # also write machine-readable BENCH_<n>.json
//	cgcmbench -baseline BENCH_0.json   # freeze this run as a baseline
//	cgcmbench -compare BENCH_0.json    # diff against a baseline; exit 1 on
//	                                   # regression (works with -program too:
//	                                   # only that program's row is gated)
//	cgcmbench -compare BENCH_0.json -threshold 0.10  # tighter gate (10%)
//	cgcmbench -trace-out traces/       # Perfetto trace per program and system
//	cgcmbench -workers 8   # kernel-engine worker goroutines per launch
//	cgcmbench -ablate mappromo  # skip named optimization passes
//	cgcmbench -program jacobi-2d -ablate-diff mappromo
//	                       # explain, per allocation unit, what the named
//	                       # passes buy: which units turn cyclic without
//	                       # them, and which remark promoted each
//	cgcmbench -faults htod=0.3,seed=7    # resilience mode: rerun the suite
//	                       # under injected device faults and verify output
//	                       # is bit-identical to the fault-free run
//	cgcmbench -gpu-mem 65536             # same, under a finite device
//	cgcmbench -async       # measure with communication overlap enabled
//	cgcmbench -metrics-listen :9090      # serve live Prometheus /metrics
//	                       # over HTTP while the suite measures
//	cgcmbench -overlap-gate  # CI gate: -async must beat sync wall and
//	                       # report overlapped bytes on Comm.-limited programs
//	cgcmbench -runlog .cgcm/runs  # append one durable run record per program
//	                       # (optimized-CGCM run) to the store
//	cgcmbench -version     # print build identity and exit
//
// The execution flags (-trace*, -prof*, -metrics, -gpu-mem, -faults,
// -async, -runlog, -timeout, -version) are one shared set, registered
// identically by cgcmrun, cgcmc, cgcmbench, and cgcmstat; cgcmbench
// interprets -trace-out as a directory and ignores the per-run print
// flags (-trace, -prof*, -metrics).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cgcm/internal/bench"
	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/faultinject"
	"cgcm/internal/metrics"
	"cgcm/internal/runlog"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// writeJSON writes the baseline document for rows to the first free
// BENCH_<n>.json and returns the path.
func writeJSON(rows []*bench.Row) (string, error) {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return "", err
		}
		return path, bench.NewBaseline(rows).WriteFile(path)
	}
}

// run is the testable entry point: it parses args and writes to the given
// streams, returning the process exit code (1 on a failed -compare gate).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("cgcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "render Table 1 (applicability comparison)")
	f2 := fs.Bool("fig2", false, "render Figure 2 (execution schedules)")
	t3 := fs.Bool("table3", false, "render Table 3 (program characteristics)")
	f4 := fs.Bool("fig4", false, "render Figure 4 (whole-program speedups)")
	one := fs.String("program", "", "run a single named program")
	ledger := fs.Bool("ledger", false, "render the per-program communication-ledger summary")
	quiet := fs.Bool("q", false, "suppress progress output")
	jsonOut := fs.Bool("json", false, "write measured rows to BENCH_<n>.json")
	baselineOut := fs.String("baseline", "", "freeze this run as a baseline at the given path")
	compareWith := fs.String("compare", "", "diff this run against the given baseline; exit 1 on regression")
	threshold := fs.Float64("threshold", 0.25, "relative simulated-wall regression that fails -compare (0.25 = 25%)")
	workers := fs.Int("workers", 0, "kernel-engine worker goroutines per launch (0 = GOMAXPROCS)")
	fs.Var(&bench.Ablate, "ablate", "comma-separated passes to skip (doall, gluekernel, allocapromo, mappromo, overlap)")
	var ablateDiff core.PassSet
	fs.Var(&ablateDiff, "ablate-diff", "explain per allocation unit what ablating these passes costs (vs the -ablate set)")
	overlapGate := fs.Bool("overlap-gate", false, "verify the overlap win: -async must improve wall and overlap bytes on the Comm.-limited programs")
	runf := cli.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmbench")
		return 0
	}
	stopProfiles, ok := runf.StartHostProfiles(stderr, "cgcmbench")
	if !ok {
		return 1
	}
	defer stopProfiles(&code)
	bench.Workers = *workers
	bench.TraceDir = runf.TraceOut
	bench.Async = runf.Async
	bench.Timeout = runf.Timeout
	if runf.Runlog != "" {
		st, err := runlog.Open(runf.Runlog)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: -runlog: %v\n", err)
			return 1
		}
		bench.Runlog = st
		defer func() { bench.Runlog = nil }()
	}
	if runf.MetricsListen != "" {
		reg := metrics.New()
		bench.Metrics = reg
		ms, err := cli.ServeMetrics(runf.MetricsListen, reg.Snapshot)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: -metrics-listen: %v\n", err)
			return 1
		}
		defer ms.Close()
		fmt.Fprintf(stderr, "serving metrics at http://%s/metrics\n", ms.Addr)
	}

	if *overlapGate {
		return runOverlapGate(stdout, stderr, *quiet)
	}

	if ablateDiff != nil {
		return runAblateDiff(stdout, stderr, *one, bench.Ablate, ablateDiff)
	}

	if runf.Faults != "" || runf.GPUMem > 0 {
		return runResilience(stdout, stderr, *one, runf.Faults, runf.GPUMem, *quiet)
	}

	all := !*t1 && !*f2 && !*t3 && !*f4 && !*ledger &&
		*one == "" && *baselineOut == "" && *compareWith == ""

	if *one != "" {
		p, ok := bench.ByName(*one)
		if !ok {
			fmt.Fprintf(stderr, "cgcmbench: unknown program %q\n", *one)
			return 1
		}
		row, err := bench.RunProgram(p)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		bench.RenderFigure4(stdout, []*bench.Row{row})
		fmt.Fprintln(stdout)
		bench.RenderTable3(stdout, []*bench.Row{row})
		if *ledger {
			fmt.Fprintln(stdout)
			bench.RenderLedger(stdout, []*bench.Row{row})
			fmt.Fprintln(stdout)
			fmt.Fprintf(stdout, "%s, unoptimized CGCM:\n%s\n", row.Name, row.Unopt.Comm)
			fmt.Fprintf(stdout, "%s, optimized CGCM:\n%s", row.Name, row.Opt.Comm)
		}
		if *jsonOut {
			path, err := writeJSON([]*bench.Row{row})
			if err != nil {
				fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		if *baselineOut != "" {
			if err := bench.NewBaseline([]*bench.Row{row}).WriteFile(*baselineOut); err != nil {
				fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote baseline %s\n", *baselineOut)
		}
		if *compareWith != "" {
			// Single-program gate: keep only this program's baseline row,
			// so the rest of the suite is not reported missing.
			return compareAgainst(stdout, stderr, *compareWith, []*bench.Row{row}, *threshold, row.Name)
		}
		return 0
	}

	if all || *t1 {
		res, err := bench.RunTable1()
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: table 1: %v\n", err)
			return 1
		}
		bench.RenderTable1(stdout, res)
		fmt.Fprintln(stdout)
	}
	if all || *f2 {
		sch, err := bench.CollectSchedules()
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: figure 2: %v\n", err)
			return 1
		}
		bench.RenderFigure2(stdout, sch)
	}
	if all || *t3 || *f4 || *ledger || *jsonOut || *baselineOut != "" || *compareWith != "" {
		var logw io.Writer = stderr
		if *quiet {
			logw = io.Discard
		}
		rows, err := bench.RunAll(logw)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		if all || *t3 {
			bench.RenderTable3(stdout, rows)
			fmt.Fprintln(stdout)
		}
		if all || *f4 {
			bench.RenderFigure4(stdout, rows)
		}
		if *ledger {
			if all || *f4 {
				fmt.Fprintln(stdout)
			}
			bench.RenderLedger(stdout, rows)
		}
		if *jsonOut {
			path, err := writeJSON(rows)
			if err != nil {
				fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		if *baselineOut != "" {
			if err := bench.NewBaseline(rows).WriteFile(*baselineOut); err != nil {
				fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote baseline %s\n", *baselineOut)
		}
		if *compareWith != "" {
			return compareAgainst(stdout, stderr, *compareWith, rows, *threshold, "")
		}
	}
	return 0
}

// compareAgainst diffs rows against the baseline at path and renders the
// result, returning 1 when the gate fails. When onlyProgram is set, the
// baseline is narrowed to that program's row first.
func compareAgainst(stdout, stderr io.Writer, path string, rows []*bench.Row, threshold float64, onlyProgram string) int {
	base, err := bench.ReadBaseline(path)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
		return 1
	}
	if onlyProgram != "" {
		kept := base.Rows[:0]
		for _, br := range base.Rows {
			if br.Program == onlyProgram {
				kept = append(kept, br)
			}
		}
		base.Rows = kept
	}
	cmp := bench.Compare(base, rows, threshold)
	bench.RenderComparison(stdout, cmp)
	if cmp.Failed() {
		return 1
	}
	return 0
}

// runOverlapGate measures the Comm.-limited programs with synchronous
// and overlapped transfers and gates on the overlap win: identical
// output, nonzero overlapped bytes, and an improved simulated wall on
// every program. Exit 1 on any miss, so CI can gate on it.
func runOverlapGate(stdout, stderr io.Writer, quiet bool) int {
	var logw io.Writer = stderr
	if quiet {
		logw = io.Discard
	}
	rows, err := bench.RunOverlapGate(logw)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
		return 1
	}
	bench.RenderOverlap(stdout, rows)
	if !bench.OverlapGatePassed(rows) {
		fmt.Fprintln(stderr, "cgcmbench: overlap gate failed: -async must keep output identical, overlap bytes, and improve the wall on every Comm.-limited program")
		return 1
	}
	return 0
}

// runResilience runs the suite (or one program) twice — fault-free and
// under the given fault spec / memory cap — and verifies the fault
// model's headline invariant: bit-identical output. Exit 1 on any
// mismatch, so CI can gate on it.
func runResilience(stdout, stderr io.Writer, one, faults string, gpuMem int64, quiet bool) int {
	var spec *faultinject.Spec
	if faults != "" {
		s, err := faultinject.ParseSpec(faults)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: -faults: %v\n", err)
			return 2
		}
		spec = s
	}
	progs := bench.All()
	if one != "" {
		p, ok := bench.ByName(one)
		if !ok {
			fmt.Fprintf(stderr, "cgcmbench: unknown program %q\n", one)
			return 1
		}
		progs = []bench.Program{p}
	}
	var logw io.Writer = stderr
	if quiet {
		logw = io.Discard
	}
	rows, err := bench.RunResilienceAll(progs, spec, gpuMem, logw)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
		return 1
	}
	bench.RenderResilience(stdout, rows, spec, gpuMem)
	if bench.AnyMismatch(rows) {
		fmt.Fprintln(stderr, "cgcmbench: resilience invariant violated: faulted output differs from fault-free output")
		return 1
	}
	return 0
}

// runAblateDiff explains what the diffed passes buy, per allocation
// unit, for one named program or the whole suite.
func runAblateDiff(stdout, stderr io.Writer, one string, base, extra core.PassSet) int {
	// The diffed set ablates the -ablate set plus the -ablate-diff passes.
	ablated := make(core.PassSet)
	for p := range base {
		ablated[p] = true
	}
	for p := range extra {
		ablated[p] = true
	}
	progs := bench.All()
	if one != "" {
		p, ok := bench.ByName(one)
		if !ok {
			fmt.Fprintf(stderr, "cgcmbench: unknown program %q\n", one)
			return 1
		}
		progs = []bench.Program{p}
	}
	for i, p := range progs {
		d, err := bench.DiffAblation(p, base, ablated)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmbench: %v\n", err)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		bench.RenderAblationDiff(stdout, d)
	}
	return 0
}
