package interp

import (
	"fmt"
	"math"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
)

// intrinsic dispatches an OpIntrinsic instruction. It returns the result
// bits and the op cost to charge to the executing context.
func (ex *exec) intrinsic(cf *compiledFunc, c *inst, regs []uint64) (uint64, int64, error) {
	in := ex.in
	instr := c.src
	a := func(i int) uint64 { return regs[c.args[i]] }
	af := func(i int) float64 { return ir.B2F(regs[c.args[i]]) }
	ff := func(v float64) uint64 { return ir.F2B(v) }
	onGPU := ex.worker && ex.insp == nil

	switch instr.Name {
	// --- Heap (CPU only; sema enforces) ---
	case "malloc":
		ex.flushOps()
		in.RT.SiteLine = int(instr.Line)
		return in.RT.Malloc(int64(a(0))), 8, nil
	case "calloc":
		ex.flushOps()
		in.RT.SiteLine = int(instr.Line)
		p, err := in.RT.Calloc(int64(a(0)), int64(a(1)))
		return p, 8, ex.wrapErr(cf, err)
	case "realloc":
		ex.flushOps()
		in.RT.SiteLine = int(instr.Line)
		p, err := in.RT.Realloc(a(0), int64(a(1)))
		return p, 8, ex.wrapErr(cf, err)
	case "free":
		ex.flushOps()
		return 0, 8, ex.wrapErr(cf, in.RT.Free(a(0)))

	// --- Strings ---
	case "strlen":
		ptr := a(0)
		n := int64(0)
		for {
			ch, err := ex.memLoad(cf, ptr+uint64(n), 1)
			if err != nil {
				return 0, 0, err
			}
			if ch == 0 {
				break
			}
			n++
		}
		return uint64(n), n + 2, nil

	// --- Math ---
	case "sqrt":
		return ff(math.Sqrt(af(0))), 6, nil
	case "fabs":
		return ff(math.Abs(af(0))), 1, nil
	case "exp":
		return ff(math.Exp(af(0))), 10, nil
	case "log":
		return ff(math.Log(af(0))), 10, nil
	case "pow":
		return ff(math.Pow(af(0), af(1))), 14, nil
	case "sin":
		return ff(math.Sin(af(0))), 10, nil
	case "cos":
		return ff(math.Cos(af(0))), 10, nil
	case "floor":
		return ff(math.Floor(af(0))), 1, nil
	case "ceil":
		return ff(math.Ceil(af(0))), 1, nil
	case "iabs":
		v := int64(a(0))
		if v < 0 {
			v = -v
		}
		return uint64(v), 1, nil
	case "imin":
		x, y := int64(a(0)), int64(a(1))
		if x < y {
			return uint64(x), 1, nil
		}
		return uint64(y), 1, nil
	case "imax":
		x, y := int64(a(0)), int64(a(1))
		if x > y {
			return uint64(x), 1, nil
		}
		return uint64(y), 1, nil
	case "fmin":
		return ff(math.Min(af(0), af(1))), 1, nil
	case "fmax":
		return ff(math.Max(af(0), af(1))), 1, nil

	// --- Deterministic RNG ---
	case "srand":
		ex.rng = a(0) | 1
		return 0, 1, nil
	case "rand_int":
		n := int64(a(0))
		if n <= 0 {
			n = 1
		}
		return uint64(int64(ex.nextRand() >> 11 % uint64(n))), 4, nil
	case "rand_float":
		return ff(float64(ex.nextRand()>>11) / float64(1<<53)), 4, nil

	// --- Output ---
	case "print_int":
		fmt.Fprintf(ex.out, "%d\n", int64(a(0)))
		return 0, 4, nil
	case "print_float":
		fmt.Fprintf(ex.out, "%.6g\n", af(0))
		return 0, 4, nil
	case "print_str":
		s, err := ex.cString(cf, a(0))
		if err != nil {
			return 0, 0, err
		}
		fmt.Fprintf(ex.out, "%s\n", s)
		return 0, 4, nil

	// --- GPU thread identity ---
	case "tid":
		if !ex.worker {
			return 0, 0, &Error{Fn: cf.fn.Name, Msg: "tid() outside kernel"}
		}
		return uint64(ex.tid), 1, nil
	case "ntid":
		if !ex.worker {
			return 0, 0, &Error{Fn: cf.fn.Name, Msg: "ntid() outside kernel"}
		}
		return uint64(ex.ntid), 1, nil

	// --- Manual communication (CUDA driver style, Listing 1) ---
	case "cuda_malloc":
		ex.flushOps()
		base := in.Mach.Alloc(machine.GPU, int64(a(0)), "cuda_malloc")
		in.Mach.ChargeAllocGPU()
		return base, 0, nil
	case "cuda_free":
		ex.flushOps()
		return 0, 0, ex.wrapErr(cf, in.Mach.Free(machine.GPU, a(0)))
	case "cuda_memcpy_h2d":
		ex.flushOps()
		return 0, 0, ex.wrapErr(cf, in.Mach.CopyHtoD(a(0), a(1), int64(a(2))))
	case "cuda_memcpy_d2h":
		ex.flushOps()
		return 0, 0, ex.wrapErr(cf, in.Mach.CopyDtoH(a(0), a(1), int64(a(2))))

	// --- CGCM runtime library ---
	case "cgcm.map":
		if onGPU {
			return 0, 0, &Error{Fn: cf.fn.Name, Msg: "cgcm.map on GPU"}
		}
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		p, err := in.RT.Map(a(0))
		ex.profRTExit(instr, t0)
		return p, 0, ex.wrapErr(cf, err)
	case "cgcm.mapAsync":
		if onGPU {
			return 0, 0, &Error{Fn: cf.fn.Name, Msg: "cgcm.mapAsync on GPU"}
		}
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		p, err := in.RT.MapAsync(a(0))
		ex.profRTExit(instr, t0)
		return p, 0, ex.wrapErr(cf, err)
	case "cgcm.unmap":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		err := in.RT.Unmap(a(0))
		ex.profRTExit(instr, t0)
		return 0, 0, ex.wrapErr(cf, err)
	case "cgcm.unmapAsync":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		err := in.RT.UnmapAsync(a(0))
		ex.profRTExit(instr, t0)
		return 0, 0, ex.wrapErr(cf, err)
	case "cgcm.release":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		err := in.RT.Release(a(0))
		ex.profRTExit(instr, t0)
		return 0, 0, ex.wrapErr(cf, err)
	case "cgcm.mapArray":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		p, err := in.RT.MapArray(a(0))
		ex.profRTExit(instr, t0)
		return p, 0, ex.wrapErr(cf, err)
	case "cgcm.unmapArray":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		err := in.RT.UnmapArray(a(0))
		ex.profRTExit(instr, t0)
		return 0, 0, ex.wrapErr(cf, err)
	case "cgcm.releaseArray":
		ex.flushOps()
		t0 := ex.profRTEnter(instr)
		err := in.RT.ReleaseArray(a(0))
		ex.profRTExit(instr, t0)
		return 0, 0, ex.wrapErr(cf, err)
	}
	return 0, 0, &Error{Fn: cf.fn.Name, Msg: "unknown intrinsic " + instr.Name}
}

// profRTEnter prepares attribution for one cgcm.* runtime-library call:
// it stamps the runtime's current source line (so transfer bytes land on
// the call site) and samples the simulated clock. No-op when profiling
// is off.
func (ex *exec) profRTEnter(instr *ir.Instr) float64 {
	in := ex.in
	if in.Prof == nil {
		return 0
	}
	in.RT.ProfLine = int(instr.Line)
	return in.Mach.Now()
}

// profRTExit charges the simulated time the runtime call consumed to the
// call's name and source line.
func (ex *exec) profRTExit(instr *ir.Instr, t0 float64) {
	in := ex.in
	if in.Prof == nil {
		return
	}
	in.Prof.AddRuntime(instr.Name, int(instr.Line), in.Mach.Now()-t0)
}

func (ex *exec) wrapErr(cf *compiledFunc, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Fn: cf.fn.Name, Msg: err.Error()}
}

func (ex *exec) nextRand() uint64 {
	x := ex.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ex.rng = x
	return x
}

func (ex *exec) cString(cf *compiledFunc, ptr uint64) (string, error) {
	var out []byte
	for {
		c, err := ex.memLoad(cf, ptr+uint64(len(out)), 1)
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, byte(c))
		if len(out) > 1<<20 {
			return "", &Error{Fn: cf.fn.Name, Msg: "unterminated string"}
		}
	}
}
