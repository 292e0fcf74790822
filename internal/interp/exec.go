package interp

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
	"cgcm/internal/prof"
)

// Scratch address-space layout. Kernel allocas are thread-local by
// construction (CGCM forbids kernels from storing pointers), so each
// worker context allocates them from a private slice of the address
// space instead of the shared segment tree. That keeps the tree
// read-only for the whole launch — the property that lets workers walk
// it without locks — and makes frame pops free.
//
// Managed launches place scratch above every real GPU allocation;
// inspector launches (which run threads against CPU memory) place it
// just below GPUBase, far above any real CPU allocation.
const (
	gpuScratchBase uint64 = 1 << 47 // 0x8000_0000_0000, still GPU space
	scratchStride  uint64 = 1 << 32 // private arena bytes per worker
)

// stepBatch is how many steps a context draws from the shared pool at a
// time; the MaxSteps limit is exact in total, only its attribution to a
// particular thread is batched.
const stepBatch = 8192

// inspectState collects one context's share of an inspector-mode launch.
type inspectState struct {
	touched map[uint64]bool
	wrote   map[uint64]bool
	acc     int64
	// [unitBase, unitEnd) is the allocation unit of the last recorded
	// access; unitWrote says it is already in wrote. Consecutive accesses
	// to one unit skip the runtime lookup and the map writes.
	unitBase, unitEnd uint64
	unitWrote         bool
}

// profFunc holds one context's exact-profiler counters for one
// function, indexed by pc: runs counts how often the segment ending at
// each charge point ran; extra holds ops charged outside a segment (call
// and intrinsic costs, fresh allocas, the executed prefix of a segment
// that faulted).
type profFunc struct {
	cf          *compiledFunc
	runs, extra []int64
}

// exec is one execution context. The interpreter's root context runs CPU
// code; each kernel launch borrows additional worker contexts (one per
// host core) that execute disjoint chunks of the thread space
// concurrently. Everything a thread mutates during execution lives here,
// so workers share only read-only state: the module, the compiled code,
// and the machine's segment tree.
type exec struct {
	in *Interp

	// budget is the context's remaining share of the step pool.
	budget int64

	depth int
	rng   uint64
	// ops is the root context's unflushed CPU op charge, and a worker's
	// op count for the thread it is running.
	ops int64
	out io.Writer

	// worker marks contexts that execute kernel threads; they resolve
	// memory through lock-free lookups and private caches.
	worker bool
	id     int // worker index, selects the scratch arena

	// Launch-scoped state of a worker: the thread being run, the grid
	// size, the call depth threads start at, and the address space the
	// threads may touch (GPU for managed launches, CPU for inspector and
	// CPU-fallback launches). The root context's space is CPU.
	tid, ntid   int64
	launchDepth int
	space       machine.Space

	// prof holds per-function op counters, indexed by compiled-function
	// id, while a worker runs a launch with exact profiling on. Counters
	// are folded into the interpreter's collector (and zeroed) after
	// every launch barrier, so they always belong to exactly one kernel.
	// nil whenever Interp.Prof is nil — the hot path then only pays one
	// nil check per charge point.
	prof      []*profFunc
	profiling bool

	// caches holds this context's per-instruction inline caches, indexed
	// by compiled-function id then pc.
	caches   [][]segCache
	segCache [4]*machine.Segment
	segIdx   uint8
	cacheGen uint64

	// Scratch stack allocator for kernel allocas (workers): the first
	// nscratch entries of scratchSegs are live, the rest are kept for
	// reuse.
	scratchBase uint64
	scratchNext uint64
	scratchSegs []*machine.Segment
	nscratch    int

	// insp is non-nil while running an inspector-mode chunk.
	insp *inspectState
	// race is non-nil when the write-set race detector is recording.
	race *raceLog

	// outSlot receives lazily-created per-chunk output buffers, merged
	// in thread order after the launch barrier.
	outSlot **bytes.Buffer

	// totalOps/maxOps accumulate per-thread op counts for the launch.
	totalOps, maxOps int64

	frames []*frame // frame free list
}

type frame struct {
	cf *compiledFunc
	// regs holds every slot of the function (see compile.go).
	regs    []uint64
	allocas []uint64 // CPU-frame allocation unit bases (root context only)
	// scratchMark/scratchLen snapshot the worker scratch allocator at
	// frame entry so popAllocas can unwind kernel allocas in O(1).
	scratchMark uint64
	scratchLen  int
}

// Write implements io.Writer for worker contexts: kernel-side output is
// buffered per chunk and replayed in thread order after the barrier.
func (ex *exec) Write(p []byte) (int, error) {
	if *ex.outSlot == nil {
		*ex.outSlot = new(bytes.Buffer)
	}
	return (*ex.outSlot).Write(p)
}

// beginLaunch prepares a worker context for one kernel launch. hostMem
// places scratch in CPU space (inspector and CPU-fallback launches);
// inspect additionally turns on touch-set recording.
func (ex *exec) beginLaunch(hostMem, inspect bool, depth int, threads int64) {
	if hostMem {
		ex.space = machine.CPU
		ex.scratchBase = machine.GPUBase - uint64(ex.id+1)*scratchStride
	} else {
		ex.space = machine.GPU
		ex.scratchBase = gpuScratchBase + uint64(ex.id)*scratchStride
	}
	ex.scratchNext = ex.scratchBase
	ex.popScratch(0)
	ex.depth, ex.launchDepth = depth, depth
	ex.ntid = threads
	ex.profiling = ex.in.Prof != nil
	ex.totalOps, ex.maxOps = 0, 0
	for i := range ex.segCache {
		ex.segCache[i] = nil
	}
	if inspect {
		if ex.insp == nil {
			ex.insp = &inspectState{touched: make(map[uint64]bool), wrote: make(map[uint64]bool)}
		} else {
			clear(ex.insp.touched)
			clear(ex.insp.wrote)
			*ex.insp = inspectState{touched: ex.insp.touched, wrote: ex.insp.wrote}
		}
	} else {
		ex.insp = nil
	}
	if ex.in.RaceCheck && !inspect {
		if ex.race == nil {
			ex.race = &raceLog{}
		}
		ex.race.ivs = ex.race.ivs[:0]
	} else {
		ex.race = nil
	}
}

// endLaunch returns the context's unused step budget to the shared pool
// and drops references that should not outlive the launch.
func (ex *exec) endLaunch() {
	ex.in.returnSteps(ex.budget)
	ex.budget = 0
	ex.out = nil
	ex.outSlot = nil
}

// takeSteps draws up to want steps from the shared pool, returning how
// many were granted (0 when the MaxSteps limit is exhausted).
func (in *Interp) takeSteps(want int64) int64 {
	for {
		cur := in.stepsTaken.Load()
		if cur >= in.stepLimit {
			return 0
		}
		take := want
		if cur+take > in.stepLimit {
			take = in.stepLimit - cur
		}
		if in.stepsTaken.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

func (in *Interp) returnSteps(n int64) {
	if n > 0 {
		in.stepsTaken.Add(-n)
	}
}

// refillSteps tops up the context's budget; false means the global step
// limit is exhausted or the run's context was canceled. Doubling as the
// cancellation checkpoint keeps the instruction hot path free of any
// per-step poll: every context — root and kernel workers alike —
// observes cancellation within stepBatch instructions.
func (ex *exec) refillSteps() bool {
	if ex.in.done != nil && ex.in.interrupted() {
		return false
	}
	take := ex.in.takeSteps(stepBatch)
	if take == 0 {
		return false
	}
	ex.budget += take
	return true
}

// flushOps hands the root context's pending CPU ops to the machine.
// Workers count ops per thread instead, so for them it is a no-op.
func (ex *exec) flushOps() {
	if !ex.worker && ex.ops > 0 {
		ex.in.Mach.CPUOps(ex.ops)
		ex.ops = 0
	}
}

// getFrame takes a frame from the free list (or allocates one) and
// resets every slot from cf's image for this context's address space.
func (ex *exec) getFrame(cf *compiledFunc) *frame {
	var fr *frame
	if n := len(ex.frames); n > 0 {
		fr = ex.frames[n-1]
		ex.frames = ex.frames[:n-1]
		fr.allocas = fr.allocas[:0]
	} else {
		fr = &frame{}
	}
	img := cf.initCPU
	if ex.space == machine.GPU {
		img = cf.initGPU
	}
	if cap(fr.regs) < len(img) {
		fr.regs = make([]uint64, len(img))
	}
	fr.regs = fr.regs[:len(img)]
	copy(fr.regs, img)
	fr.cf = cf
	return fr
}

// inScratch reports whether addr falls in this worker's scratch arena.
func (ex *exec) inScratch(addr uint64) bool {
	return ex.worker && addr-ex.scratchBase < scratchStride
}

// allocScratch carves a kernel alloca out of the worker's private arena,
// reusing a retired scratch segment (with zeroed data) when one is free.
func (ex *exec) allocScratch(size int64, name string) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	base := ex.scratchNext
	next := (base + uint64(size) + 15) &^ 15
	if next-ex.scratchBase > scratchStride {
		return 0, fmt.Errorf("kernel scratch arena exhausted (%d bytes requested)", size)
	}
	ex.scratchNext = next
	if ex.nscratch == len(ex.scratchSegs) {
		ex.scratchSegs = append(ex.scratchSegs, new(machine.Segment))
	}
	s := ex.scratchSegs[ex.nscratch]
	ex.nscratch++
	if int64(cap(s.Data)) >= size {
		s.Data = s.Data[:size]
		clear(s.Data)
	} else {
		s.Data = make([]byte, size)
	}
	s.Base, s.Space, s.Name = base, ex.space, name
	return base, nil
}

// popScratch retires the scratch segments past the first n. A retired
// segment keeps its buffer for reuse but no bytes, so an inline cache
// still pointing at it misses instead of reading a dead local.
func (ex *exec) popScratch(n int) {
	for _, s := range ex.scratchSegs[n:ex.nscratch] {
		s.Data = s.Data[:0]
	}
	ex.nscratch = n
}

// lookupSeg resolves addr for a worker context: scratch first (private,
// so no other worker can observe it), then the worker's small segment
// cache, then a lock-free walk of the shared tree.
func (ex *exec) lookupSeg(addr uint64) *machine.Segment {
	if addr-ex.scratchBase < scratchStride {
		for i := ex.nscratch - 1; i >= 0; i-- {
			if s := ex.scratchSegs[i]; addr >= s.Base && addr < s.End() {
				return s
			}
		}
		return nil
	}
	// The tree is read-only during a multi-worker launch, but a 1-thread
	// glue kernel may free memory mid-launch; a generation bump drops the
	// cache, exactly like the per-instruction inline caches.
	if g := ex.in.Mach.Gen(); g != ex.cacheGen {
		ex.cacheGen = g
		for i := range ex.segCache {
			ex.segCache[i] = nil
		}
	}
	for _, c := range &ex.segCache {
		if c != nil && addr >= c.Base && addr < c.End() {
			return c
		}
	}
	seg := ex.in.Mach.LookupSegment(addr)
	if seg != nil {
		ex.segCache[ex.segIdx] = seg
		ex.segIdx = (ex.segIdx + 1) & 3
	}
	return seg
}

// segForAccess resolves the segment for a size-byte access at addr,
// reproducing the machine's fault messages. Root contexts go through
// the machine (warming its access cache as before); workers use the
// lock-free path.
func (ex *exec) segForAccess(addr uint64, size int64) (*machine.Segment, error) {
	var seg *machine.Segment
	if ex.worker {
		seg = ex.lookupSeg(addr)
	} else {
		// Lazy flush synchronization: an async DtoH issue bumps the
		// machine generation, so every inline cache misses into here; if
		// the host is touching a unit whose flush is still in flight, it
		// pays the DMA wait now. Pure host work between flushes never
		// reaches this check and overlaps the copies.
		if ex.in.Mach.HostPendingCount() != 0 {
			ex.in.Mach.WaitHostUnit(addr)
		}
		seg = ex.in.Mach.FindSegment(addr)
	}
	if seg == nil {
		return nil, &machine.Fault{Addr: addr, Size: size, Msg: "unmapped address"}
	}
	if addr+uint64(size) > seg.End() {
		return nil, &machine.Fault{Addr: addr, Size: size, Msg: fmt.Sprintf(
			"access crosses end of allocation unit %q [%#x,%#x)", seg.Name, seg.Base, seg.End())}
	}
	return seg, nil
}

// resolve is the uncached access path: address-space check, then the
// segment lookup.
func (ex *exec) resolve(cf *compiledFunc, addr uint64, size int64, write bool) (*machine.Segment, error) {
	if err := ex.checkSpace(cf, addr, write); err != nil {
		return nil, err
	}
	seg, err := ex.segForAccess(addr, size)
	if err != nil {
		return nil, &Error{Fn: cf.fn.Name, Msg: err.Error()}
	}
	return seg, nil
}

// loadSlow is a load that missed its inline cache; it refills the cache.
// Scratch segments are cached too: a popped one keeps no bytes (see
// popAllocas), so a cache entry can only ever hit a live allocation.
func (ex *exec) loadSlow(cf *compiledFunc, sc *segCache, addr uint64, size int64) (uint64, error) {
	seg, err := ex.resolve(cf, addr, size, false)
	if err != nil {
		return 0, err
	}
	v, _ := seg.Load(addr, size)
	*sc = segCache{seg: seg, gen: ex.in.Mach.Gen()}
	return v, nil
}

// storeSlow is a store that missed its inline cache.
func (ex *exec) storeSlow(cf *compiledFunc, sc *segCache, addr uint64, size int64, val uint64) error {
	seg, err := ex.resolve(cf, addr, size, true)
	if err != nil {
		return err
	}
	seg.Store(addr, size, val)
	*sc = segCache{seg: seg, gen: ex.in.Mach.Gen()}
	if ex.race != nil && !ex.inScratch(addr) {
		ex.race.record(addr, size)
	}
	return nil
}

// memLoad is the general memory read used by intrinsics (strlen and
// friends); the interpreter loop has its own inlined copy of this path.
func (ex *exec) memLoad(cf *compiledFunc, addr uint64, size int64) (uint64, error) {
	if err := ex.checkSpace(cf, addr, false); err != nil {
		return 0, err
	}
	if ex.insp != nil {
		ex.recordInspect(addr, false)
	}
	seg, err := ex.segForAccess(addr, size)
	if err != nil {
		return 0, &Error{Fn: cf.fn.Name, Msg: err.Error()}
	}
	v, _ := seg.Load(addr, size)
	return v, nil
}

// checkSpace validates that an access belongs to the executing context's
// address space.
func (ex *exec) checkSpace(cf *compiledFunc, addr uint64, write bool) error {
	if machine.SpaceOf(addr) == ex.space {
		return nil
	}
	what := "read"
	if write {
		what = "write"
	}
	if ex.space == machine.GPU {
		return &Error{Fn: cf.fn.Name, Msg: fmt.Sprintf(
			"GPU kernel %s of CPU address %#x (missing or incorrect communication management)", what, addr)}
	}
	return &Error{Fn: cf.fn.Name, Msg: fmt.Sprintf(
		"CPU %s of GPU address %#x (stale translation or missing unmap)", what, addr)}
}

// recordInspect notes one inspector-mode memory access. Scratch
// addresses are kernel-frame locals that exist on the device and are
// never transferred, so they are not recorded.
func (ex *exec) recordInspect(addr uint64, write bool) {
	st := ex.insp
	st.acc++
	if addr-st.unitBase < st.unitEnd-st.unitBase {
		if write && !st.unitWrote {
			st.wrote[st.unitBase] = true
			st.unitWrote = true
		}
		return
	}
	if addr-ex.scratchBase < scratchStride {
		return
	}
	if info := ex.in.RT.Lookup(addr); info != nil {
		st.touched[info.Base] = true
		if write {
			st.wrote[info.Base] = true
		}
		st.unitBase, st.unitEnd, st.unitWrote = info.Base, info.Base+uint64(info.Size), write
	}
}

// profFor returns this context's op counters for cf, allocating lazily.
// Only called while profiling, so the disabled path never touches it.
func (ex *exec) profFor(cf *compiledFunc) *profFunc {
	if cf.id >= len(ex.prof) {
		ex.prof = append(ex.prof, make([]*profFunc, cf.id+1-len(ex.prof))...)
	}
	pf := ex.prof[cf.id]
	if pf == nil {
		pf = &profFunc{cf: cf, runs: make([]int64, len(cf.code)), extra: make([]int64, len(cf.code))}
		ex.prof[cf.id] = pf
	}
	return pf
}

// foldProf credits every accumulated op count to its source line under
// (kernel, site) and zeroes the counters. A segment's runs expand into
// each of its instructions' static costs. Called on the launch goroutine
// after the worker barrier, so no context is concurrently counting.
func (ex *exec) foldProf(col *prof.Collector, kernel string, site int) {
	for _, pf := range ex.prof {
		if pf == nil {
			continue
		}
		cf := pf.cf
		seg := 0
		for pc, c := range cf.code {
			if c.steps > 0 {
				seg = pc
			}
			if k := pf.runs[pc]; k != 0 {
				for j := seg; j <= pc; j++ {
					pf.extra[j] += k * cf.code[j].op.cost()
				}
				pf.runs[pc] = 0
			}
		}
		for pc, n := range pf.extra {
			if n != 0 {
				col.AddKernelOps(kernel, site, int(cf.lines[pc]), n)
				pf.extra[pc] = 0
			}
		}
	}
}

// cachesFor returns this context's inline caches for cf, one per pc.
// Each context has its own, so concurrent workers never write to shared
// cache lines.
func (ex *exec) cachesFor(cf *compiledFunc) []segCache {
	if cf.id >= len(ex.caches) {
		ex.caches = append(ex.caches, make([][]segCache, cf.id+1-len(ex.caches))...)
	}
	sc := ex.caches[cf.id]
	if sc == nil {
		sc = make([]segCache, len(cf.code))
		ex.caches[cf.id] = sc
	}
	return sc
}

// call executes cf with argument bits, returning the result bits.
func (ex *exec) call(cf *compiledFunc, args []uint64) (uint64, error) {
	fr, err := ex.enter(cf)
	if err != nil {
		return 0, err
	}
	for i, r := range cf.params {
		if i < len(args) {
			fr.regs[r] = args[i]
		}
	}
	return ex.invoke(fr)
}

// enter pushes a frame for cf, enforcing the call-depth limit; the
// caller fills in the parameters and runs it with invoke.
func (ex *exec) enter(cf *compiledFunc) (*frame, error) {
	in := ex.in
	if in.depthLimit == 0 {
		in.stepLimit = in.maxSteps()
		in.depthLimit = in.maxDepth()
	}
	if ex.depth++; ex.depth > in.depthLimit {
		ex.depth--
		return nil, &Error{Fn: cf.fn.Name, Msg: "call depth limit exceeded"}
	}
	fr := ex.getFrame(cf)
	if ex.worker {
		fr.scratchMark = ex.scratchNext
		fr.scratchLen = ex.nscratch
	}
	return fr, nil
}

// invoke runs an entered frame to completion and pops it.
func (ex *exec) invoke(fr *frame) (uint64, error) {
	ret, err := ex.run(fr)
	ex.popAllocas(fr)
	ex.frames = append(ex.frames, fr)
	ex.depth--
	return ret, err
}

func (ex *exec) popAllocas(fr *frame) {
	if ex.worker {
		// Kernel allocas live in the worker's scratch arena: unwind the
		// stack allocator to the frame's entry watermark.
		ex.popScratch(fr.scratchLen)
		ex.scratchNext = fr.scratchMark
		return
	}
	in := ex.in
	for i := len(fr.allocas) - 1; i >= 0; i-- {
		base := fr.allocas[i]
		in.RT.RemoveAlloca(base)
		_ = in.Mach.Free(machine.CPU, base)
	}
	fr.allocas = fr.allocas[:0]
}

// alloca creates the allocation unit for a first-executed alloca: kernel
// scratch on a worker, a tracked CPU unit on the root context.
func (ex *exec) alloca(fr *frame, c *inst) (uint64, error) {
	cf := fr.cf
	if ex.worker {
		base, err := ex.allocScratch(c.size, cf.kallocaName)
		if err != nil {
			return 0, &Error{Fn: cf.fn.Name, Msg: err.Error()}
		}
		return base, nil
	}
	in := ex.in
	base := in.Mach.Alloc(machine.CPU, c.size, cf.allocaName)
	in.RT.SiteLine = int(c.src.Line)
	in.RT.DeclareAlloca(base, c.size, cf.allocaName)
	fr.allocas = append(fr.allocas, base)
	return base, nil
}

// fault ends a segment at pc with err: the instructions before pc are
// charged their static cost, and steps drawn for instructions after pc
// (up to stop) go back to the budget, exactly as if every instruction
// had been charged and stepped one at a time.
func (ex *exec) fault(cf *compiledFunc, pf *profFunc, seg, pc, stop int32, err error) error {
	for j := seg; j < pc; j++ {
		c := cf.code[j].op.cost()
		ex.ops += c
		if pf != nil {
			pf.extra[j] += c
		}
	}
	if r := stop - pc - 1; r > 0 {
		ex.budget += int64(r)
	}
	return err
}

// run executes fr's function from its entry and returns the result
// bits. Each segment draws its steps on entry; when the budget and the
// shared pool cannot cover a whole segment, only the covered prefix runs
// before the step limit faults, at the instruction a per-instruction
// count would have stopped at.
func (ex *exec) run(fr *frame) (uint64, error) {
	in := ex.in
	mach := in.Mach
	cf := fr.cf
	code := cf.code
	regs := fr.regs
	caches := ex.cachesFor(cf)
	space := ex.space
	var pf *profFunc
	if ex.profiling {
		pf = ex.profFor(cf)
	}
	pc := int32(0)
segments:
	for {
		// stop is the first pc whose step is not drawn yet: reaching it
		// draws the rest of the segment from the budget, refilling the
		// budget from the shared pool only once it is empty.
		seg, end := pc, pc+code[pc].steps
		stop := seg
		for {
			if pc == stop {
				if ex.budget == 0 && !ex.refillSteps() {
					err := in.checkCancel(cf.fn.Name)
					if err == nil {
						err = &Error{Fn: cf.fn.Name, Msg: "step limit exceeded (infinite loop?)"}
					}
					return 0, ex.fault(cf, pf, seg, pc, stop, err)
				}
				if rest := int64(end - pc); ex.budget >= rest {
					ex.budget -= rest
					stop = end
				} else {
					stop = pc + int32(ex.budget)
					ex.budget = 0
				}
			}
			c := &code[pc]
			switch c.op {
			case opAlloca:
				// A cached slot reuses the unit when the same alloca
				// re-executes in one frame (C scope re-entry semantics;
				// keeps loop-local declarations from growing the segment
				// table).
				if base := regs[c.b]; base != 0 {
					regs[c.dst] = base
					break
				}
				base, err := ex.alloca(fr, c)
				if err != nil {
					return 0, ex.fault(cf, pf, seg, pc, stop, err)
				}
				regs[c.b], regs[c.dst] = base, base
				// A fresh allocation costs one op more.
				ex.ops++
				if pf != nil {
					pf.extra[pc]++
				}

			case opLoad:
				addr := regs[c.a]
				if ex.insp != nil {
					ex.recordInspect(addr, false)
				}
				sc := &caches[pc]
				if sc.seg != nil && sc.gen == mach.Gen() && sc.seg.Space == space {
					if v, ok := sc.seg.Load(addr, c.size); ok {
						regs[c.dst] = v
						break
					}
				}
				v, err := ex.loadSlow(cf, sc, addr, c.size)
				if err != nil {
					return 0, ex.fault(cf, pf, seg, pc, stop, err)
				}
				regs[c.dst] = v

			case opStore:
				addr, val := regs[c.a], regs[c.b]
				if ex.insp != nil {
					ex.recordInspect(addr, true)
				}
				sc := &caches[pc]
				if sc.seg != nil && sc.gen == mach.Gen() && sc.seg.Space == space && sc.seg.Store(addr, c.size, val) {
					if ex.race != nil && !ex.inScratch(addr) {
						ex.race.record(addr, c.size)
					}
					break
				}
				if err := ex.storeSlow(cf, sc, addr, c.size, val); err != nil {
					return 0, ex.fault(cf, pf, seg, pc, stop, err)
				}

			case opIAdd:
				regs[c.dst] = regs[c.a] + regs[c.b]
			case opISub:
				regs[c.dst] = regs[c.a] - regs[c.b]
			case opIMul:
				regs[c.dst] = regs[c.a] * regs[c.b]
			case opIDiv, opIRem:
				x, y := int64(regs[c.a]), int64(regs[c.b])
				if y == 0 {
					what := "division"
					if c.op == opIRem {
						what = "remainder"
					}
					return 0, ex.fault(cf, pf, seg, pc, stop, &Error{Fn: cf.fn.Name, Msg: "integer " + what + " by zero"})
				}
				if c.op == opIDiv {
					regs[c.dst] = uint64(x / y)
				} else {
					regs[c.dst] = uint64(x % y)
				}
			case opAnd:
				regs[c.dst] = regs[c.a] & regs[c.b]
			case opOr:
				regs[c.dst] = regs[c.a] | regs[c.b]
			case opXor:
				regs[c.dst] = regs[c.a] ^ regs[c.b]
			case opShl:
				regs[c.dst] = regs[c.a] << (regs[c.b] & 63)
			case opShr:
				regs[c.dst] = uint64(int64(regs[c.a]) >> (regs[c.b] & 63))
			case opIEq:
				regs[c.dst] = b2i(regs[c.a] == regs[c.b])
			case opINe:
				regs[c.dst] = b2i(regs[c.a] != regs[c.b])
			case opILt:
				regs[c.dst] = b2i(int64(regs[c.a]) < int64(regs[c.b]))
			case opILe:
				regs[c.dst] = b2i(int64(regs[c.a]) <= int64(regs[c.b]))
			case opIGt:
				regs[c.dst] = b2i(int64(regs[c.a]) > int64(regs[c.b]))
			case opIGe:
				regs[c.dst] = b2i(int64(regs[c.a]) >= int64(regs[c.b]))

			case opFAdd:
				regs[c.dst] = ir.F2B(ir.B2F(regs[c.a]) + ir.B2F(regs[c.b]))
			case opFSub:
				regs[c.dst] = ir.F2B(ir.B2F(regs[c.a]) - ir.B2F(regs[c.b]))
			case opFMul:
				regs[c.dst] = ir.F2B(ir.B2F(regs[c.a]) * ir.B2F(regs[c.b]))
			case opFDiv:
				regs[c.dst] = ir.F2B(ir.B2F(regs[c.a]) / ir.B2F(regs[c.b]))
			case opFRem:
				regs[c.dst] = ir.F2B(math.Mod(ir.B2F(regs[c.a]), ir.B2F(regs[c.b])))
			case opFEq:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) == ir.B2F(regs[c.b]))
			case opFNe:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) != ir.B2F(regs[c.b]))
			case opFLt:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) < ir.B2F(regs[c.b]))
			case opFLe:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) <= ir.B2F(regs[c.b]))
			case opFGt:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) > ir.B2F(regs[c.b]))
			case opFGe:
				regs[c.dst] = b2i(ir.B2F(regs[c.a]) >= ir.B2F(regs[c.b]))

			case opIToF:
				regs[c.dst] = ir.F2B(float64(int64(regs[c.a])))
			case opFToI:
				regs[c.dst] = uint64(int64(ir.B2F(regs[c.a])))

			case opCall:
				ex.ops += int64(c.cost)
				if pf != nil {
					pf.runs[pc]++
				}
				callee, err := ex.enter(c.callee)
				if err != nil {
					return 0, err
				}
				for i, s := range c.args {
					if i < len(c.callee.params) {
						callee.regs[c.callee.params[i]] = regs[s]
					}
				}
				v, err := ex.invoke(callee)
				if err != nil {
					return 0, err
				}
				if c.dst >= 0 {
					regs[c.dst] = v
				}
				ex.ops += 5
				if pf != nil {
					pf.extra[pc] += 5
				}
				pc++
				continue segments

			case opIntrinsic:
				ex.ops += int64(c.cost)
				if pf != nil {
					pf.runs[pc]++
				}
				v, cost, err := ex.intrinsic(cf, c, regs)
				if err != nil {
					return 0, err
				}
				if c.dst >= 0 {
					regs[c.dst] = v
				}
				ex.ops += cost
				if pf != nil {
					pf.extra[pc] += cost
				}
				pc++
				continue segments

			case opLaunch:
				// Launch cost is charged by the machine.
				ex.ops += int64(c.cost)
				if ex.worker {
					return 0, &Error{Fn: cf.fn.Name, Msg: "nested kernel launch"}
				}
				if err := ex.launch(c, regs); err != nil {
					return 0, err
				}
				pc++
				continue segments

			case opRet:
				ex.ops += int64(c.cost)
				if pf != nil {
					pf.runs[pc]++
				}
				if c.a < 0 {
					return 0, nil
				}
				return regs[c.a], nil

			case opBr:
				ex.ops += int64(c.cost)
				if pf != nil {
					pf.runs[pc]++
				}
				pc = c.t0
				continue segments

			case opCondBr:
				ex.ops += int64(c.cost)
				if pf != nil {
					pf.runs[pc]++
				}
				if regs[c.a] != 0 {
					pc = c.t0
				} else {
					pc = c.t1
				}
				continue segments

			default: // opInvalid
				return 0, ex.fault(cf, pf, seg, pc, stop, cf.invalidErr(c))
			}
			pc++
		}
	}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
