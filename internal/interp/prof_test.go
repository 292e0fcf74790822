package interp

import (
	"bytes"
	"testing"

	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/machine"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	"cgcm/internal/prof"
	runtimelib "cgcm/internal/runtime"
)

// profKernelSrc launches a kernel whose work is dominated by a single
// source line (the inner loop lives entirely on one line). The kernel
// touches only thread-local state, so it runs without communication
// management.
const profKernelSrc = `
__global__ void k(int n) {
	int x = tid();
	for (int j = 0; j < n; j++) { x = x + j; }
}
int main() {
	k<<<4, 16>>>(50);
	k<<<4, 16>>>(50);
	return 0;
}`

func buildModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, errs := parser.Parse("test.c", src)
	for _, e := range errs {
		t.Fatalf("parse: %v", e)
	}
	info, serrs := sema.Check(file)
	for _, e := range serrs {
		t.Fatalf("sema: %v", e)
	}
	mod, err := irbuild.Build(info)
	if err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	return mod
}

func runKernelProgram(t *testing.T, col *prof.Collector) (*Interp, *machine.Machine) {
	t.Helper()
	mod := buildModule(t, profKernelSrc)
	m := machine.New(machine.DefaultCostModel())
	rt := runtimelib.New(m)
	var out bytes.Buffer
	in, nerr := New(mod, m, rt, &out)
	if nerr != nil {
		t.Fatalf("New: %v", nerr)
	}
	in.Prof = col
	if _, err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in, m
}

// TestProfDisabledAllocatesNothing pins the disabled-path guarantee:
// with Interp.Prof nil, no execution context ever allocates profiling
// state — the kernel hot path pays only a nil check.
func TestProfDisabledAllocatesNothing(t *testing.T) {
	in, _ := runKernelProgram(t, nil)
	if in.root.prof != nil {
		t.Fatalf("root context allocated profile counters with profiling disabled")
	}
	for i, ex := range in.workers {
		if ex.prof != nil {
			t.Fatalf("worker %d allocated profile counters with profiling disabled", i)
		}
	}
}

// TestProfCountsAreExact checks the core exactness property: the
// profiler's total equals the machine's GPU op count (both fold the same
// per-instruction costs), and the counters are zeroed by the post-launch
// fold so no ops leak across launches.
func TestProfCountsAreExact(t *testing.T) {
	col := prof.NewCollector("test.c")
	in, m := runKernelProgram(t, col)
	p := col.Profile()
	if p.TotalGPUOps == 0 {
		t.Fatal("profiler attributed no GPU ops")
	}
	if got, want := p.TotalGPUOps, m.Stats().GPUOps; got != want {
		t.Fatalf("profiler total %d != machine GPU ops %d", got, want)
	}
	// The inner loop sits entirely on source line 4; with n=50 it must
	// dominate the kernel's ops.
	var hot, total int64
	for _, ls := range p.Lines {
		total += ls.GPUOps
		if ls.Line == 4 {
			hot += ls.GPUOps
		}
	}
	if float64(hot) < 0.9*float64(total) {
		t.Fatalf("hot line got %d of %d ops (<90%%)", hot, total)
	}
	// Post-launch folds zero every counter.
	for _, ex := range append([]*exec{in.root}, in.workers...) {
		for _, pf := range ex.prof {
			if pf == nil {
				continue
			}
			for _, counts := range [][]int64{pf.runs, pf.extra} {
				for pc, n := range counts {
					if n != 0 {
						t.Fatalf("counter %d not zeroed after fold (%d)", pc, n)
					}
				}
			}
		}
	}
}
