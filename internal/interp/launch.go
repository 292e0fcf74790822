package interp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cgcm/internal/machine"
	"cgcm/internal/trace"
)

// launch executes an OpLaunch instruction according to the launch mode.
func (ex *exec) launch(c *inst, regs []uint64) error {
	in := ex.in
	grid := int64(regs[c.args[0]])
	blockDim := int64(regs[c.args[1]])
	threads := grid * blockDim
	if threads <= 0 {
		threads = 1
	}
	args := make([]uint64, len(c.args)-2)
	for i := range args {
		args[i] = regs[c.args[i+2]]
	}
	ex.flushOps()
	if in.Mode == Inspector {
		return in.launchInspector(c.callee, int(c.src.Line), threads, args)
	}
	return in.launchManaged(c.callee, int(c.src.Line), threads, args)
}

// launchManaged runs every thread against GPU memory and charges one
// asynchronous kernel. The runtime epoch advances so subsequent unmaps
// know GPU memory may have changed. Under a fault plan the launch driver
// call itself can fail: transient faults retry inside PreLaunch, and a
// persistent failure degrades the device, after which this launch (and
// every later one) executes on the CPU instead.
func (in *Interp) launchManaged(kernel *compiledFunc, line int, threads int64, args []uint64) error {
	// Kernel-launch boundary: a canceled run stops here before paying
	// for another grid, the abort point the service deadline promises.
	if err := in.checkCancel(kernel.fn.Name); err != nil {
		return err
	}
	if err := in.RT.PreLaunch(kernel.fn.Name); err != nil {
		return err
	}
	if in.RT.Degraded() {
		return in.launchFallback(kernel, line, threads, args)
	}
	in.RT.KernelLaunched()
	res, err := in.runGrid(kernel, line, threads, args, false, false)
	if err != nil {
		return err
	}
	in.Mach.LaunchKernelAt(kernel.fn.Name, line, threads, res.totalOps, res.maxOps, in.RT.TakeLaunchWaits()...)
	return nil
}

// launchFallback executes a kernel on the CPU after device degradation.
// The runtime's map surface has become an identity layer, so kernel
// arguments are CPU pointers — except device addresses handed out before
// the device died, which translate back to their CPU allocation units.
// Threads run functionally against host memory and the machine charges
// sequential CPU execution, so the program's output is bit-identical to
// a fault-free run; only the schedule differs.
func (in *Interp) launchFallback(kernel *compiledFunc, line int, threads int64, args []uint64) error {
	in.RT.KernelLaunched()
	targs := make([]uint64, len(args))
	for i, a := range args {
		if machine.SpaceOf(a) == machine.GPU {
			if cpu, ok := in.RT.TranslateDev(a); ok {
				a = cpu
			}
		}
		targs[i] = a
	}
	res, err := in.runGrid(kernel, line, threads, targs, true, false)
	if err != nil {
		return err
	}
	in.Mach.RunKernelOnCPUAt(kernel.fn.Name, line, res.totalOps)
	in.RT.NoteFallbackKernel()
	return nil
}

// launchInspector implements the paper's idealized inspector-executor
// comparator (§6.3): "The inspector-executor system has an oracle for
// scheduling and transfers exactly one byte between CPU and GPU for each
// accessed allocation unit. A compiler creates the inspector from the
// original loop." Inspection is sequential CPU work proportional to the
// loop's memory accesses; communication is one tiny (cyclic) transfer per
// touched allocation unit in each direction; execution then occupies the
// GPU timeline. Functionally, threads run against host memory — the
// oracle's transfers are assumed perfect.
func (in *Interp) launchInspector(kernel *compiledFunc, line int, threads int64, args []uint64) error {
	if err := in.checkCancel(kernel.fn.Name); err != nil {
		return err
	}
	in.RT.KernelLaunched()
	res, err := in.runGrid(kernel, line, threads, args, true, true)
	if err != nil {
		return err
	}
	// Sequential inspection: the inspector walks the loop's address
	// stream on the CPU before any parallel work can start.
	in.Mach.InspectorOps(res.inspAcc)
	// Oracle transfers: one byte per accessed unit in, one byte per
	// written unit out. Each transfer pays full latency — this is what
	// keeps the pattern cyclic.
	for i := 0; i < res.inspTouched; i++ {
		in.Mach.ChargeTransfer(trace.KindHtoD, 1)
	}
	in.Mach.LaunchKernelAt(kernel.fn.Name, line, threads, res.totalOps, res.maxOps)
	for i := 0; i < res.inspWrote; i++ {
		in.Mach.ChargeTransfer(trace.KindDtoH, 1)
	}
	return nil
}

// gridResult is the deterministic merge of all workers' accounting for
// one launch.
type gridResult struct {
	totalOps, maxOps int64
	inspAcc          int64
	inspTouched      int // distinct allocation units read or written
	inspWrote        int // distinct allocation units written
}

type threadFault struct {
	tid int64
	err error
}

// numWorkers resolves the configured worker count.
func (in *Interp) numWorkers() int {
	if in.Workers > 0 {
		return in.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerCtx returns the i-th pooled worker context, growing the pool on
// demand; contexts persist across launches so their inline caches and
// frame free lists stay warm.
func (in *Interp) workerCtx(i int) *exec {
	for len(in.workers) <= i {
		in.workers = append(in.workers, &exec{in: in, worker: true, id: len(in.workers)})
	}
	return in.workers[i]
}

// callRecover runs one kernel thread, converting any panic in
// interpreter internals into a typed execution error. Worker goroutines
// must never let a panic escape: it would kill the process instead of
// surfacing through the launch's deterministic fault merge.
func (ex *exec) callRecover(cf *compiledFunc, args []uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &Error{Fn: cf.fn.Name, Msg: fmt.Sprintf("internal: panic in kernel thread %d: %v", ex.tid, p)}
			// The panic skipped the frame pops: restore the state every
			// thread starts from.
			ex.depth, ex.scratchNext = ex.launchDepth, ex.scratchBase
			ex.popScratch(0)
		}
	}()
	_, err = ex.call(cf, args)
	return
}

// threadSeed derives a per-thread RNG stream (splitmix64) so any
// RNG-consuming kernel code is deterministic regardless of the schedule.
// (The mini-C front end rejects rand in kernels; this covers hand-built
// IR.)
func threadSeed(seed uint64, tid int64) uint64 {
	z := seed + uint64(tid+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runGrid executes the grid×block thread space of one kernel launch.
//
// The thread space is split into contiguous chunks claimed from an
// atomic counter by worker contexts (up to GOMAXPROCS of them, pooled on
// the interpreter). During the launch the machine's segment tree is
// read-only — kernel allocas come from per-worker scratch arenas — so
// workers resolve memory without locks. After the barrier everything is
// merged deterministically:
//
//   - op counts fold by sum/max, which are schedule-independent;
//   - inspector touch-sets fold by union;
//   - kernel output buffers replay in thread order;
//   - if any threads faulted, the lowest thread id wins, exactly the
//     fault sequential execution reports (workers skip threads above the
//     current minimum faulting tid, so every lower thread still runs).
func (in *Interp) runGrid(kernel *compiledFunc, line int, threads int64, args []uint64, hostMem, inspect bool) (gridResult, error) {
	nw := in.numWorkers()
	if int64(nw) > threads {
		nw = int(threads)
	}
	chunk := threads / int64(nw*4)
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (threads + chunk - 1) / chunk
	outs := make([]*bytes.Buffer, nChunks)

	var next atomic.Int64
	var minErr atomic.Int64
	minErr.Store(threads) // sentinel: no fault
	var faultMu sync.Mutex
	var faults []threadFault
	seed := in.root.rng
	depth := in.root.depth

	run := func(ex *exec) {
		ex.beginLaunch(hostMem, inspect, depth, threads)
		for {
			ci := next.Add(1) - 1
			if ci >= nChunks {
				break
			}
			lo := ci * chunk
			hi := lo + chunk
			if hi > threads {
				hi = threads
			}
			if lo > minErr.Load() {
				break
			}
			ex.outSlot = &outs[ci]
			ex.out = ex
			for t := lo; t < hi; t++ {
				if t > minErr.Load() {
					break
				}
				ex.rng = threadSeed(seed, t)
				if ex.race != nil {
					ex.race.tid = t
				}
				ex.tid, ex.ops = t, 0
				if err := ex.callRecover(kernel, args); err != nil {
					faultMu.Lock()
					faults = append(faults, threadFault{t, err})
					faultMu.Unlock()
					for {
						cur := minErr.Load()
						if t >= cur || minErr.CompareAndSwap(cur, t) {
							break
						}
					}
					break
				}
				ex.totalOps += ex.ops
				if ex.ops > ex.maxOps {
					ex.maxOps = ex.ops
				}
			}
		}
		ex.endLaunch()
	}

	ws := make([]*exec, nw)
	for i := range ws {
		ws[i] = in.workerCtx(i)
	}
	if nw == 1 {
		run(ws[0])
	} else {
		var wg sync.WaitGroup
		for _, ex := range ws {
			wg.Add(1)
			go func(ex *exec) {
				defer wg.Done()
				run(ex)
			}(ex)
		}
		wg.Wait()
	}

	// Fold exact per-line op attribution on the launch goroutine: the
	// barrier above guarantees no context is still counting, and zeroing
	// after the fold scopes every counter to exactly one launch. Folding
	// happens even on a fault so partial work is still attributed.
	if in.Prof != nil {
		for _, ex := range ws {
			ex.foldProf(in.Prof, kernel.fn.Name, line)
		}
	}

	// Replay buffered kernel output in thread order; on a fault, exactly
	// the output threads 0..faultTid produced, as sequential execution
	// would have printed.
	errTid := minErr.Load()
	for ci := int64(0); ci < nChunks && ci*chunk <= errTid; ci++ {
		if outs[ci] != nil {
			in.Out.Write(outs[ci].Bytes())
		}
	}
	if errTid < threads {
		for _, f := range faults {
			if f.tid == errTid {
				prefix := "kernel"
				if inspect {
					prefix = "inspector kernel"
				}
				return gridResult{}, fmt.Errorf("%s %s, thread %d: %w", prefix, kernel.fn.Name, f.tid, f.err)
			}
		}
		return gridResult{}, &Error{Fn: kernel.fn.Name, Msg: "internal: faulting thread vanished during merge"}
	}

	var res gridResult
	var raceLogs [][]writeIv
	if inspect {
		// Fold worker touch-sets by union: the merged set is the same
		// for any chunk assignment.
		touched := ws[0].insp.touched
		wrote := ws[0].insp.wrote
		for _, ex := range ws[1:] {
			for b := range ex.insp.touched {
				touched[b] = true
			}
			for b := range ex.insp.wrote {
				wrote[b] = true
			}
		}
		res.inspTouched = len(touched)
		res.inspWrote = len(wrote)
	}
	for _, ex := range ws {
		res.totalOps += ex.totalOps
		if ex.maxOps > res.maxOps {
			res.maxOps = ex.maxOps
		}
		if inspect {
			res.inspAcc += ex.insp.acc
		}
		if ex.race != nil && len(ex.race.ivs) > 0 {
			raceLogs = append(raceLogs, ex.race.ivs)
		}
	}
	if in.RaceCheck && !inspect {
		in.Races = append(in.Races, sweepRaces(kernel.fn.Name, raceLogs)...)
	}
	return res, nil
}
