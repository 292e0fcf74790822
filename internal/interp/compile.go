package interp

import (
	"fmt"

	"cgcm/internal/ir"
	"cgcm/internal/machine"
)

// Compiled function format. Each function is compiled once per
// interpreter into a flat array of pre-resolved instructions, laid out
// block after block, so execution is an index walk over one slice:
//
//   - every operand is a frame slot. Slots [0, NumRegs) are the IR's
//     registers; past them, in order of first use, come the function's
//     constants, its global addresses and one cache slot per alloca. A
//     new frame copies a per-function image of all slots (zero
//     registers, the constants, the CPU or GPU address of each global,
//     empty alloca caches), so reading an operand is one slice index;
//   - the opcode carries its int/float class, so arithmetic is a single
//     switch;
//   - branch targets are instruction indices (pcs).
//
// Instructions form straight-line runs ("segments") that end at a
// charge point: a call, intrinsic or launch, or a block terminator. A
// segment's first instruction records its length, and execution draws
// that many steps at once on entry. A charge point records the static
// op cost of its run — everything before it, and for a terminator
// itself too — and charges it once. Calls, intrinsics and launches then
// charge their own cost after they return, so every flush of pending
// CPU ops sees exactly the ops a per-instruction charge would have.

// opcode is a compiled instruction's operation, int/float class resolved.
type opcode uint8

const (
	opInvalid opcode = iota // faults with the instruction's error
	opAlloca
	opLoad
	opStore
	opIAdd
	opISub
	opIMul
	opIDiv
	opIRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opIEq
	opINe
	opILt
	opILe
	opIGt
	opIGe
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFRem
	opFEq
	opFNe
	opFLt
	opFLe
	opFGt
	opFGe
	opIToF
	opFToI
	opCall
	opIntrinsic
	opLaunch
	opRet
	opBr
	opCondBr
)

// intOps and floatOps map IR arithmetic to opcodes; a zero entry
// (opInvalid) is an operation the class does not support.
var intOps, floatOps [ir.OpCondBr + 1]opcode

func init() {
	for _, m := range []struct {
		op   ir.Op
		i, f opcode
	}{
		{ir.OpAdd, opIAdd, opFAdd}, {ir.OpSub, opISub, opFSub},
		{ir.OpMul, opIMul, opFMul}, {ir.OpDiv, opIDiv, opFDiv},
		{ir.OpRem, opIRem, opFRem},
		{ir.OpAnd, opAnd, 0}, {ir.OpOr, opOr, 0}, {ir.OpXor, opXor, 0},
		{ir.OpShl, opShl, 0}, {ir.OpShr, opShr, 0},
		{ir.OpEq, opIEq, opFEq}, {ir.OpNe, opINe, opFNe},
		{ir.OpLt, opILt, opFLt}, {ir.OpLe, opILe, opFLe},
		{ir.OpGt, opIGt, opFGt}, {ir.OpGe, opIGe, opFGe},
	} {
		intOps[m.op], floatOps[m.op] = m.i, m.f
	}
}

// cost is the static op cost of one instruction. Calls, intrinsics and
// launches cost 0 here: they charge their own (possibly dynamic) cost
// after they run. An alloca costs one more op when it allocates.
func (op opcode) cost() int64 {
	switch op {
	case opLoad, opStore:
		return 3
	case opCall, opIntrinsic, opLaunch:
		return 0
	}
	return 1
}

// chargePoint reports whether op ends a segment.
func (op opcode) chargePoint() bool { return op >= opCall }

// inst is one compiled instruction.
type inst struct {
	op     opcode
	dst    int32 // result slot; -1 for none
	a, b   int32 // operand slots; for an alloca, b is its cache slot
	t0, t1 int32 // branch successor pcs (t0: the block of a missing terminator)
	steps  int32 // at a segment's first instruction: the segment's length
	cost   int32 // at a charge point: the static op cost of its run
	size   int64 // load/store access bytes; alloca bytes
	args   []int32
	callee *compiledFunc // OpCall, OpLaunch
	src    *ir.Instr     // nil for a block's missing terminator
}

// segCache is a monomorphic inline cache: most load/store sites touch
// one allocation unit for the life of the program, so remembering the
// segment skips the tree walk. A machine generation mismatch (some
// segment was freed) forces re-validation.
type segCache struct {
	seg *machine.Segment
	gen uint64
}

type compiledFunc struct {
	fn *ir.Func
	// id indexes per-context state (inline caches, profile counters).
	id     int
	code   []inst
	lines  []int32 // mini-C source line per pc, for the exact profiler
	params []int32 // parameter slots
	// initCPU/initGPU are the frame slot images for host contexts and
	// managed kernel threads: they differ only in global addresses.
	initCPU, initGPU []uint64
	// Names of the allocation units allocas create.
	allocaName, kallocaName string
}

// compile builds (and caches) the compiled form of f and of every
// function it calls or launches, so worker goroutines only ever read
// compiled code. The cache is valid because modules are never mutated
// after interpretation starts — all passes run and Renumber at compile
// time, before New. compile must not mutate f either: one module may be
// interpreted by concurrent interpreters, so register numbering is a
// precondition, not a fixup.
func (in *Interp) compile(f *ir.Func) *compiledFunc {
	if cf, ok := in.compiled[f]; ok {
		return cf
	}
	cf := &compiledFunc{
		fn:          f,
		id:          len(in.compiled),
		allocaName:  "alloca " + f.Name,
		kallocaName: "kalloca " + f.Name,
	}
	// Register before compiling callees so recursion terminates.
	in.compiled[f] = cf

	// Slot images: registers first, then constants, globals and alloca
	// caches in order of first use.
	cpu := make([]uint64, f.NumRegs)
	gpu := make([]uint64, f.NumRegs)
	newSlot := func(c, g uint64) int32 {
		cpu, gpu = append(cpu, c), append(gpu, g)
		return int32(len(cpu) - 1)
	}
	consts := map[uint64]int32{}
	globals := map[*ir.Global]int32{}
	slot := func(v ir.Value) int32 {
		switch v := v.(type) {
		case *ir.Param:
			return int32(v.Reg)
		case *ir.Instr:
			return int32(v.Reg)
		case *ir.GlobalRef:
			s, ok := globals[v.Global]
			if !ok {
				s = newSlot(in.globalAddr[v.Global], in.devAddr[v.Global])
				globals[v.Global] = s
			}
			return s
		}
		var bits uint64 // any other value reads as the constant 0
		if c, ok := v.(*ir.Const); ok {
			bits = c.Bits
		}
		s, ok := consts[bits]
		if !ok {
			s = newSlot(bits, bits)
			consts[bits] = s
		}
		return s
	}
	for _, p := range f.Params {
		cf.params = append(cf.params, int32(p.Reg))
	}

	// Block start pcs. A block without a terminator (never produced by a
	// verified module) ends in an opInvalid that reports it.
	start := make([]int32, len(f.Blocks))
	pc := 0
	for _, b := range f.Blocks {
		start[b.Index] = int32(pc)
		pc += len(b.Instrs)
		if fallsThrough(b) {
			pc++
		}
	}
	cf.code = make([]inst, 0, pc)
	cf.lines = make([]int32, 0, pc)
	for _, b := range f.Blocks {
		seg, segCost := len(cf.code), int64(0)
		for _, instr := range b.Instrs {
			c := in.lower(instr, slot, start)
			if c.op == opAlloca {
				c.b = newSlot(0, 0)
			}
			segCost += c.op.cost() // 0 for calls, intrinsics and launches
			if c.op.chargePoint() {
				c.cost = int32(segCost)
			}
			cf.code = append(cf.code, c)
			cf.lines = append(cf.lines, instr.Line)
			if c.op.chargePoint() {
				cf.code[seg].steps = int32(len(cf.code) - seg)
				seg, segCost = len(cf.code), 0
			}
		}
		if fallsThrough(b) {
			cf.code = append(cf.code, inst{op: opInvalid, dst: -1, t0: int32(b.Index)})
			cf.lines = append(cf.lines, 0)
			cf.code[seg].steps = int32(len(cf.code) - seg)
		}
	}
	cf.initCPU, cf.initGPU = cpu, gpu
	return cf
}

func fallsThrough(b *ir.Block) bool {
	n := len(b.Instrs)
	return n == 0 || !b.Instrs[n-1].Op.IsTerminator()
}

// lower compiles one instruction; callees are compiled on demand.
func (in *Interp) lower(instr *ir.Instr, slot func(ir.Value) int32, start []int32) inst {
	c := inst{dst: -1, a: -1, b: -1, size: instr.Size, src: instr}
	arg := func(i int) int32 { return slot(instr.Args[i]) }
	switch instr.Op {
	case ir.OpAlloca:
		c.op, c.dst = opAlloca, int32(instr.Reg)
	case ir.OpLoad:
		c.op, c.dst, c.a = opLoad, int32(instr.Reg), arg(0)
	case ir.OpStore:
		c.op, c.a, c.b = opStore, arg(0), arg(1)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		c.op = intOps[instr.Op]
		if instr.Float {
			c.op = floatOps[instr.Op]
		}
		if c.op != opInvalid {
			c.dst, c.a, c.b = int32(instr.Reg), arg(0), arg(1)
		}
	case ir.OpIToF:
		c.op, c.dst, c.a = opIToF, int32(instr.Reg), arg(0)
	case ir.OpFToI:
		c.op, c.dst, c.a = opFToI, int32(instr.Reg), arg(0)
	case ir.OpCall, ir.OpIntrinsic, ir.OpLaunch:
		c.op, c.dst = opIntrinsic, int32(instr.Reg)
		c.args = make([]int32, len(instr.Args))
		for i := range instr.Args {
			c.args[i] = arg(i)
		}
		if instr.Op != ir.OpIntrinsic {
			c.op, c.callee = opCall, in.compile(instr.Callee)
			if instr.Op == ir.OpLaunch {
				c.op = opLaunch
			}
		}
	case ir.OpRet:
		c.op = opRet
		if len(instr.Args) > 0 {
			c.a = arg(0)
		}
	case ir.OpBr:
		c.op, c.t0 = opBr, start[instr.Targets[0].Index]
	case ir.OpCondBr:
		c.op, c.a = opCondBr, arg(0)
		c.t0, c.t1 = start[instr.Targets[0].Index], start[instr.Targets[1].Index]
	}
	return c
}

// invalidErr is the fault an opInvalid raises.
func (cf *compiledFunc) invalidErr(c *inst) error {
	var msg string
	switch {
	case c.src == nil:
		msg = "block " + cf.fn.Blocks[c.t0].Name + " fell through without terminator"
	case c.src.Float && intOps[c.src.Op] != opInvalid:
		msg = fmt.Sprintf("float op %s unsupported", c.src.Op)
	default:
		msg = "unknown opcode " + c.src.Op.String()
	}
	return &Error{Fn: cf.fn.Name, Msg: msg}
}
