// Command cgcmrun compiles a mini-C file and executes it on the simulated
// CPU-GPU machine, printing the program's output followed by an execution
// report (simulated times, transfer counts, kernel counts).
//
// Usage:
//
//	cgcmrun file.c                    # optimized CGCM
//	cgcmrun -strategy seq file.c      # plain sequential CPU execution
//	cgcmrun -compare file.c           # run all four systems, report table
//	cgcmrun -trace file.c             # append an execution schedule
//	cgcmrun -trace-out t.json file.c  # write a Perfetto-viewable trace
//	cgcmrun -ledger file.c            # per-allocation-unit communication
//	cgcmrun -ablate mappromo file.c   # skip named optimization passes
//	cgcmrun -prof file.c              # exact profile: hot lines, sites, transfers
//	cgcmrun -prof -prof-n 40 file.c   # show 40 hot lines (-prof-top works too)
//	cgcmrun -prof-folded p.folded file.c  # folded stacks for flamegraph tools
//	cgcmrun -metrics m.json file.c    # machine/runtime/compiler metrics JSON
//	cgcmrun -metrics-listen :9090 file.c  # serve live Prometheus /metrics
//	                                  # over HTTP while the run executes
//	cgcmrun -remarks file.c           # compile remarks + runtime remarks for
//	                                  # allocation units that stayed cyclic
//	cgcmrun -remarks -remarks-missed-only file.c  # rejections + cyclic units
//	cgcmrun -remarks-json r.json file.c           # remarks as JSON
//	cgcmrun -gpu-mem 4096 file.c      # finite device memory (evict under pressure)
//	cgcmrun -faults htod=0.5,seed=3 file.c  # inject deterministic device faults
//	cgcmrun -async file.c             # overlap communication with compute
//	                                  # (streams, prefetch, overlapped flushes)
//	cgcmrun -runlog .cgcm/runs file.c # append a durable run record (build,
//	                                  # options, stats, ledger, critical path)
//	cgcmrun -timeout 30s file.c       # abort the run after 30s of host time
//	                                  # with a typed error and partial output
//	cgcmrun -version                  # print build identity and exit
//
// The execution flags (-trace*, -prof*, -metrics, -gpu-mem, -faults,
// -async, -runlog, -timeout, -version) are one shared set, registered
// identically by cgcmrun, cgcmc, cgcmbench, and cgcmstat.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cgcm/internal/cli"
	"cgcm/internal/core"
	"cgcm/internal/interp"
	"cgcm/internal/metrics"
	tracepkg "cgcm/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: it parses args, compiles and executes,
// and writes to the given streams, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("cgcmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strategy := fs.String("strategy", "opt", "sequential | inspector | unopt | opt")
	compare := fs.Bool("compare", false, "run all four systems and compare")
	ledger := fs.Bool("ledger", false, "print the per-allocation-unit communication ledger")
	var ablate core.PassSet
	fs.Var(&ablate, "ablate", "comma-separated passes to skip (doall, gluekernel, allocapromo, mappromo, overlap)")
	runf := cli.AddRunFlags(fs)
	rflags := cli.AddRemarkFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runf.Version {
		cli.PrintVersion(stdout, "cgcmrun")
		return 0
	}
	stopProfiles, ok := runf.StartHostProfiles(stderr, "cgcmrun")
	if !ok {
		return 1
	}
	defer stopProfiles(&code)
	faultSpec, perr := runf.FaultSpec()
	if perr != nil {
		fmt.Fprintf(stderr, "cgcmrun: -faults: %v\n", perr)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cgcmrun [-strategy s | -compare] [-trace] [-trace-out f] [-ledger] [-ablate passes] [-remarks] [-async] file.c")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "cgcmrun: %v\n", err)
		return 1
	}
	name := fs.Arg(0)

	if *compare {
		fmt.Fprintf(stdout, "%-20s %12s %10s %10s %8s %8s\n", "system", "sim time", "HtoD", "DtoH", "kernels", "speedup")
		var base float64
		for _, s := range []core.Strategy{core.Sequential, core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
			rep, err := core.CompileAndRun(name, string(src), core.Options{Strategy: s, Ablate: ablate})
			if err != nil {
				fmt.Fprintf(stderr, "cgcmrun: %s: %v\n", s, err)
				return 1
			}
			if s == core.Sequential {
				base = rep.Stats.Wall
			}
			fmt.Fprintf(stdout, "%-20s %10.1fus %10d %10d %8d %7.2fx\n",
				s, rep.Stats.Wall*1e6, rep.Stats.NumHtoD, rep.Stats.NumDtoH,
				rep.Stats.NumKernels, base/rep.Stats.Wall)
		}
		return 0
	}

	st, ok := cli.ParseStrategy(*strategy)
	if !ok {
		fmt.Fprintf(stderr, "cgcmrun: unknown strategy %q\n", *strategy)
		return 2
	}
	var tr *tracepkg.Tracer
	// A run record stores the critical-path digest, which needs spans, so
	// -runlog forces span collection even without -trace.
	if runf.Tracing() || runf.Runlog != "" {
		tr = tracepkg.New()
	}
	var reg *metrics.Registry
	if runf.MetricsOut != "" || runf.MetricsListen != "" {
		reg = metrics.New()
	}
	if runf.MetricsListen != "" {
		ms, err := cli.ServeMetrics(runf.MetricsListen, reg.Snapshot)
		if err != nil {
			fmt.Fprintf(stderr, "cgcmrun: -metrics-listen: %v\n", err)
			return 1
		}
		defer ms.Close()
		fmt.Fprintf(stderr, "--- serving metrics at http://%s/metrics\n", ms.Addr)
	}
	opts := core.Options{
		Strategy:    st,
		Tracer:      tr,
		Ablate:      ablate,
		Profile:     runf.Profiling(),
		Metrics:     reg,
		Remarks:     rflags.Wanted() || runf.Runlog != "",
		GPUMemBytes: runf.GPUMem,
		FaultSpec:   faultSpec,
		Async:       runf.Async,
	}
	ctx, cancel := runf.RunContext()
	defer cancel()
	hostStart := time.Now()
	rep, err := core.CompileAndRunContext(ctx, name, string(src), opts)
	hostNS := time.Since(hostStart).Nanoseconds()
	if err != nil {
		var cancelErr *interp.CancelError
		if errors.As(err, &cancelErr) {
			fmt.Fprintf(stderr, "cgcmrun: run aborted by -timeout %v: %v\n", runf.Timeout, err)
		} else {
			fmt.Fprintf(stderr, "cgcmrun: %v\n", err)
		}
		if rep != nil && rep.Output != "" {
			fmt.Fprintf(stderr, "partial output:\n%s", rep.Output)
		}
		writeTrace(stderr, runf.TraceOut, tr)
		return 1
	}
	fmt.Fprint(stdout, rep.Output)
	fmt.Fprintf(stderr, "--- %s: sim %.1fus | HtoD %d (%.1fKB) | DtoH %d (%.1fKB) | kernels %d | promotions %d\n",
		rep.Strategy, rep.Stats.Wall*1e6,
		rep.Stats.NumHtoD, float64(rep.Stats.BytesHtoD)/1024,
		rep.Stats.NumDtoH, float64(rep.Stats.BytesDtoH)/1024,
		rep.Stats.NumKernels, rep.Promotions)
	if runf.GPUMem > 0 || faultSpec != nil {
		mode := "gpu"
		if rep.RTStats.Degraded {
			mode = "cpu-fallback"
		}
		fmt.Fprintf(stderr, "--- resilience: %s | faults injected %d | evictions %d (%.1fKB) | retries %d | rescues %d | fallback kernels %d\n",
			mode, rep.Stats.InjectedFaults,
			rep.RTStats.Evictions, float64(rep.RTStats.EvictionBytes)/1024,
			rep.RTStats.Retries, rep.RTStats.RescueCopies, rep.Stats.FallbackKernels)
	}
	if runf.Trace && tr != nil {
		for _, sp := range tr.Spans() {
			fmt.Fprintf(stderr, "%10.2fus %8.2fus %-7s %s\n",
				sp.Start*1e6, (sp.End-sp.Start)*1e6, sp.Kind, sp.Name)
		}
	}
	if *ledger {
		fmt.Fprint(stderr, rep.Comm)
	}
	// Runtime remarks ride on Report.Remarks, so -remarks here also names
	// the units the ledger saw stay cyclic, unlike cgcmc's compile-only
	// view. They print to stderr, keeping stdout the program's own output.
	if code := rflags.Write("cgcmrun", rep.Remarks, stderr, stderr); code != 0 {
		return code
	}
	if runf.Prof {
		if err := rep.Profile.WriteFlat(stderr, runf.ProfN); err != nil {
			fmt.Fprintf(stderr, "cgcmrun: write profile: %v\n", err)
			return 1
		}
	}
	if runf.ProfFolded != "" {
		if code := writeFile(stderr, runf.ProfFolded, "folded stacks", func(f *os.File) error {
			return rep.Profile.WriteFolded(f)
		}); code != 0 {
			return code
		}
	}
	if runf.MetricsOut != "" {
		if code := writeFile(stderr, runf.MetricsOut, "metrics", func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(rep.Metrics)
		}); code != 0 {
			return code
		}
	}
	if runf.Runlog != "" {
		rec := cli.NewRunRecord(name, opts, rep, hostNS)
		if code := runf.AppendRecord(stderr, stderr, rec); code != 0 {
			return code
		}
	}
	return writeTrace(stderr, runf.TraceOut, tr)
}

// writeFile creates path and runs emit on it, reporting what was written;
// it returns a process exit code.
func writeFile(stderr io.Writer, path, what string, emit func(*os.File) error) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmrun: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := emit(f); err != nil {
		fmt.Fprintf(stderr, "cgcmrun: write %s: %v\n", what, err)
		return 1
	}
	fmt.Fprintf(stderr, "--- %s written to %s\n", what, path)
	return 0
}

// writeTrace exports the collected spans as Chrome trace-event JSON.
func writeTrace(stderr io.Writer, path string, tr *tracepkg.Tracer) int {
	if path == "" || tr == nil {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "cgcmrun: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := tracepkg.WriteChrome(f, tr); err != nil {
		fmt.Fprintf(stderr, "cgcmrun: write trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "--- trace written to %s (open in ui.perfetto.dev)\n", path)
	return 0
}
