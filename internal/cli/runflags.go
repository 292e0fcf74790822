package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cgcm/internal/faultinject"
)

// RunFlags is the shared execution-surface flag bundle: tracing,
// profiling, metrics export, device configuration, fault injection, and
// the -async overlap switch. All three commands (cgcmrun, cgcmc,
// cgcmbench) register it identically — same names, same help text — so
// flags move between command lines without respelling. Flags that do
// not apply to a command parse and are ignored there (cgcmc never
// executes, so the run-only flags are inert; each command's doc comment
// says which).
type RunFlags struct {
	Trace         bool
	TraceOut      string
	Prof          bool
	ProfN         int
	ProfFolded    string
	MetricsOut    string
	MetricsListen string
	GPUMem        int64
	Faults        string
	Async         bool
	Runlog        string
	Timeout       time.Duration
	CPUProfile    string
	MemProfile    string
	Version       bool
}

// AddRunFlags registers the shared execution flags on fs.
func AddRunFlags(fs *flag.FlagSet) *RunFlags {
	rf := &RunFlags{}
	fs.BoolVar(&rf.Trace, "trace", false, "print the machine span trace after the run")
	fs.StringVar(&rf.TraceOut, "trace-out", "", "write Chrome trace-event JSON for ui.perfetto.dev (cgcmbench: a directory, one trace per program and system)")
	fs.BoolVar(&rf.Prof, "prof", false, "print the exact execution profile (hot lines, launch sites, transfers)")
	// -prof-n is the documented flag; -prof-top is kept as an alias for
	// existing scripts. Both set the same variable; last one parsed wins.
	rf.ProfN = 20
	fs.IntVar(&rf.ProfN, "prof-n", 20, "number of hot lines shown by -prof")
	fs.IntVar(&rf.ProfN, "prof-top", 20, "alias for -prof-n")
	fs.StringVar(&rf.ProfFolded, "prof-folded", "", "write folded stacks (kernel@site;line ops) for flamegraph tools")
	fs.StringVar(&rf.MetricsOut, "metrics", "", "write the metrics registry snapshot as JSON")
	fs.StringVar(&rf.MetricsListen, "metrics-listen", "", "serve live metrics at http://<addr>/metrics (Prometheus text format) while the run executes")
	fs.Int64Var(&rf.GPUMem, "gpu-mem", 0, "device memory capacity in bytes (0 = unlimited); the runtime evicts under pressure")
	fs.StringVar(&rf.Faults, "faults", "", "device fault-injection spec, e.g. seed=7,htod=0.5,alloc@3,fail=launch@2")
	fs.BoolVar(&rf.Async, "async", false, "overlap communication with compute: stream transfers, prefetched maps, overlapped flushes")
	fs.StringVar(&rf.Runlog, "runlog", "", "append a durable run record to this store directory (cgcmstat default: .cgcm/runs)")
	fs.DurationVar(&rf.Timeout, "timeout", 0, "abort the run after this host duration (e.g. 30s); the run stops at the next kernel-launch boundary with a typed error (0 = no limit)")
	fs.StringVar(&rf.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of this process (host time, not simulated time) to file")
	fs.StringVar(&rf.MemProfile, "memprofile", "", "write a pprof heap profile of this process to file when the command ends")
	fs.BoolVar(&rf.Version, "version", false, "print build identity (module version, VCS revision) and exit")
	return rf
}

// Tracing reports whether a tracer sink must be attached to the run.
func (rf *RunFlags) Tracing() bool { return rf.Trace || rf.TraceOut != "" }

// Profiling reports whether the exact profiler must be enabled.
func (rf *RunFlags) Profiling() bool { return rf.Prof || rf.ProfFolded != "" }

// RunContext returns the execution context implied by -timeout: a
// deadline context when a timeout was given, Background otherwise. The
// cancel func is always non-nil; callers defer it.
func (rf *RunFlags) RunContext() (context.Context, context.CancelFunc) {
	if rf.Timeout > 0 {
		return context.WithTimeout(context.Background(), rf.Timeout)
	}
	return context.WithCancel(context.Background())
}

// FaultSpec parses -faults; a nil spec means no injection.
func (rf *RunFlags) FaultSpec() (*faultinject.Spec, error) {
	if rf.Faults == "" {
		return nil, nil
	}
	return faultinject.ParseSpec(rf.Faults)
}

// StartHostProfiles starts the -cpuprofile profiler. The returned stop
// function ends it and writes the -memprofile heap profile; commands
// defer it with their exit code, which it turns to 1 when a profile
// cannot be written. Errors are reported on stderr as "<cmd>: ...";
// ok is false when the CPU profile could not be started.
func (rf *RunFlags) StartHostProfiles(stderr io.Writer, cmd string) (stop func(code *int), ok bool) {
	var cpu *os.File
	if rf.CPUProfile != "" {
		f, err := os.Create(rf.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: -cpuprofile: %v\n", cmd, err)
			return nil, false
		}
		cpu = f
	}
	return func(code *int) {
		fail := func(flag string, err error) {
			fmt.Fprintf(stderr, "%s: %s: %v\n", cmd, flag, err)
			if *code == 0 {
				*code = 1
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fail("-cpuprofile", err)
			}
		}
		if rf.MemProfile != "" {
			if err := writeHeapProfile(rf.MemProfile); err != nil {
				fail("-memprofile", err)
			}
		}
	}, true
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports the heap as of the last GC
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
