// Package interp executes IR modules on the simulated machine.
//
// The interpreter plays three roles:
//
//   - CPU execution of ordinary functions, charging the machine's CPU
//     timeline and enforcing that CPU code only touches CPU memory.
//   - GPU execution of kernels: a launch runs every thread functionally,
//     counts per-thread work, and charges one asynchronous kernel on the
//     GPU timeline. Kernel code may only touch GPU memory, so missing or
//     wrong communication management faults instead of silently reading
//     stale data.
//   - The CGCM runtime binding: cgcm.* intrinsics call into
//     internal/runtime, and every kernel launch advances the epoch.
//
// An alternative launch mode implements the paper's idealized
// inspector-executor comparator (§6.3).
//
// Kernel launches execute in parallel on the host: the thread space is
// partitioned into contiguous chunks claimed by a pool of worker
// contexts (see exec.go and launch.go), each owning its frame stack, op
// counters, scratch allocator, and inspector touch-set. Results merge
// deterministically after the barrier, so program output, machine
// statistics, and faults are identical for any worker count.
package interp

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/prof"
	"cgcm/internal/runtime"
	"cgcm/internal/trace"
)

// LaunchMode selects how kernel launches are executed.
type LaunchMode int

// Launch modes.
const (
	// Managed runs kernels against GPU memory; communication must have
	// been arranged (by CGCM intrinsics or manually). Cross-space access
	// faults.
	Managed LaunchMode = iota
	// Inspector implements the idealized inspector-executor system:
	// sequential inspection, oracle scheduling, one byte of transfer per
	// accessed allocation unit per direction, kernels run functionally
	// against CPU memory.
	Inspector
)

// Limits bound interpretation so runaway programs terminate.
type Limits struct {
	MaxSteps     int64 // total executed instructions (CPU + GPU); 0 = default
	MaxCallDepth int   // 0 = default
}

// DefaultLimits are generous enough for the benchmark suite.
var DefaultLimits = Limits{MaxSteps: 4_000_000_000, MaxCallDepth: 4096}

// Error is a runtime execution error with a description of where it arose.
type Error struct {
	Fn  string
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("interp: in %s: %s", e.Fn, e.Msg) }

// CancelError is the typed error returned when the driving context is
// canceled or its deadline expires mid-run. Execution stops at the next
// step-batch refill or kernel-launch boundary, so the machine and
// runtime statistics observed so far are still coherent. Unwrap exposes
// the context's cause, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) both work through any wrapping.
type CancelError struct {
	Fn    string // function (or kernel) executing when the run stopped
	Cause error  // the context's Err(): Canceled or DeadlineExceeded
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("interp: in %s: run canceled: %v", e.Fn, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// Interp executes one module.
type Interp struct {
	Mod  *ir.Module
	Mach *machine.Machine
	RT   *runtime.Runtime
	Out  io.Writer
	Mode LaunchMode
	Lim  Limits

	// Tr, when non-nil, receives a fault span when execution dies, so
	// exported traces show where a run ended.
	Tr *trace.Tracer

	// Prof, when non-nil, receives exact execution attribution: every
	// simulated GPU op is credited to the source line of the instruction
	// that incurred it (folded after each launch), and every cgcm.*
	// runtime call is timed on the simulated clock. When nil, the kernel
	// hot path performs no profiling work and no allocations.
	Prof *prof.Collector

	// Workers is the number of host goroutines used to execute the
	// threads of each kernel launch; 0 means GOMAXPROCS. Output, machine
	// statistics, and faults are identical for every worker count.
	Workers int

	// RaceCheck enables the write-set race detector: each kernel
	// thread's store intervals are recorded and intersected after the
	// launch barrier, and overlapping writes from distinct threads are
	// reported in Races. Detection is independent of the worker count
	// (it works even with Workers=1).
	RaceCheck bool
	// Races accumulates race detector findings across launches.
	Races []RaceFinding

	globalAddr map[*ir.Global]uint64 // host addresses
	devAddr    map[*ir.Global]uint64 // device named regions

	// compiled caches each function's compiled code (see compile.go).
	// It is filled by the root context only: compiling a function
	// compiles everything it calls or launches, so workers only read
	// compiled code.
	compiled   map[*ir.Func]*compiledFunc
	stepLimit  int64
	depthLimit int

	// stepsTaken is the shared step pool: contexts draw batches from it
	// (see exec.takeSteps) so the MaxSteps limit is enforced across all
	// workers without an atomic operation per instruction.
	stepsTaken atomic.Int64

	// ctx/done carry the optional cancellation signal (SetContext).
	// done is cached so the hot path's poll is one channel select; a nil
	// done channel never delivers, so the uncanceled default costs only
	// the select itself — and only once per stepBatch refill.
	ctx  context.Context
	done <-chan struct{}

	// root executes CPU code; workers execute kernel thread chunks.
	root    *exec
	workers []*exec
}

// New prepares an interpreter for the module: it loads globals into both
// memory spaces, registers them with the runtime, and seeds the RNG.
// Module load is fallible: a bad global initializer is a typed error, and
// under fault injection the device regions for globals may fail to
// allocate — the runtime then degrades to CPU fallback before main runs,
// which is still a successful load.
func New(mod *ir.Module, mach *machine.Machine, rt *runtime.Runtime, out io.Writer) (*Interp, error) {
	in := &Interp{
		Mod: mod, Mach: mach, RT: rt, Out: out,
		Lim:        DefaultLimits,
		globalAddr: make(map[*ir.Global]uint64),
		devAddr:    make(map[*ir.Global]uint64),
		compiled:   make(map[*ir.Func]*compiledFunc),
	}
	in.root = &exec{in: in, out: out, rng: 0x9E3779B97F4A7C15}
	for _, g := range mod.Globals {
		base := mach.Alloc(machine.CPU, g.Size, "global "+g.Name)
		if g.Init != nil {
			if err := mach.WriteBytes(base, g.Init); err != nil {
				return nil, &Error{Fn: "module load", Msg: "global " + g.Name + " init: " + err.Error()}
			}
		}
		in.globalAddr[g] = base
		dev := rt.AllocDeviceGlobal(base, g.Size, g.Name)
		in.devAddr[g] = dev
		rt.DeclareGlobal(g.Name, base, g.Size, g.ReadOnly, dev)
	}
	return in, nil
}

// SetContext attaches a cancellation context to the interpreter. When
// ctx is canceled (deadline, client disconnect), the run aborts with a
// typed *CancelError at the next step-batch refill — every stepBatch
// instructions on every worker — or at the next kernel-launch boundary,
// whichever comes first. A nil ctx (the default) disables the checks.
// Must be called before Run; it must not change during a run.
func (in *Interp) SetContext(ctx context.Context) {
	if ctx == nil {
		in.ctx, in.done = nil, nil
		return
	}
	in.ctx = ctx
	in.done = ctx.Done()
}

// interrupted polls the cancellation signal without blocking. Safe to
// call from worker goroutines: in.done is written once before Run.
func (in *Interp) interrupted() bool {
	select {
	case <-in.done:
		return true
	default:
		return false
	}
}

// cancelCause returns the context's error when it has fired, nil
// otherwise (including when no context is attached).
func (in *Interp) cancelCause() error {
	if in.ctx == nil {
		return nil
	}
	return in.ctx.Err()
}

// checkCancel returns the typed cancellation error when the attached
// context has fired; fn names the boundary for the message.
func (in *Interp) checkCancel(fn string) error {
	if cause := in.cancelCause(); cause != nil {
		return &CancelError{Fn: fn, Cause: cause}
	}
	return nil
}

// GlobalAddr returns the host address of a module global.
func (in *Interp) GlobalAddr(g *ir.Global) uint64 { return in.globalAddr[g] }

// Steps reports how many instruction steps have been drawn from the
// shared step pool. Contexts batch their draws, so the value may
// overcount live work by at most stepBatch per context mid-launch; after
// Run it is exact up to the unused remainder of each context's final
// batch.
func (in *Interp) Steps() int64 { return in.stepsTaken.Load() }

// Run executes __cgcm_init (if present) then main, and finally syncs the
// machine. It returns main's exit value.
func (in *Interp) Run() (int64, error) {
	in.stepLimit = in.maxSteps()
	in.depthLimit = in.maxDepth()
	if f := in.Mod.Func("__cgcm_init"); f != nil {
		if _, err := in.root.call(in.compile(f), nil); err != nil {
			in.emitFault(err)
			return 0, err
		}
	}
	mainFn := in.Mod.Func("main")
	if mainFn == nil {
		return 0, &Error{Fn: "main", Msg: "module has no main"}
	}
	ret, err := in.root.call(in.compile(mainFn), nil)
	if err != nil {
		in.emitFault(err)
		return 0, err
	}
	in.root.flushOps()
	in.Mach.Sync()
	return int64(ret), nil
}

// emitFault marks where execution died on the traced timeline.
func (in *Interp) emitFault(err error) {
	if in.Tr == nil || err == nil {
		return
	}
	now := in.Mach.Now()
	in.Tr.Emit(trace.Span{
		Kind: trace.KindFault, Lane: trace.LaneCPU,
		Name: err.Error(), Start: now, End: now,
	})
}

func (in *Interp) maxDepth() int {
	if in.Lim.MaxCallDepth > 0 {
		return in.Lim.MaxCallDepth
	}
	return DefaultLimits.MaxCallDepth
}

func (in *Interp) maxSteps() int64 {
	if in.Lim.MaxSteps > 0 {
		return in.Lim.MaxSteps
	}
	return DefaultLimits.MaxSteps
}
