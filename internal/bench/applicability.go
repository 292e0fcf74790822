package bench

import (
	"fmt"
	"io"
	"strings"

	"cgcm/internal/core"
)

// FeatureProgram exercises one language feature from Table 1's columns.
// CGCM must compile it, manage its communication automatically, and
// produce the sequential answer.
type FeatureProgram struct {
	Feature string
	Source  string
}

// FeaturePrograms returns the Table 1 feature probes.
func FeaturePrograms() []FeatureProgram {
	return []FeatureProgram{
		{
			Feature: "CPU-GPU aliasing pointers",
			Source: `
// Two live-in pointers alias the same heap unit at different offsets;
// allocation-unit granularity keeps them coherent on the GPU.
__global__ void addhalves(float *lo, float *hi, int n) {
	int i = tid();
	if (i < n) lo[i] = lo[i] + hi[i];
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int i = 0; i < 64; i++) v[i] = (float)i;
	float *hi = v + 32;
	for (int t = 0; t < 3; t++) {
		addhalves<<<1, 32>>>(v, hi, 32);
	}
	float s = 0.0;
	for (int i = 0; i < 64; i++) s += v[i];
	print_float(s);
	free(v);
	return 0;
}`,
		},
		{
			Feature: "irregular accesses",
			Source: `
// Data-dependent (gather) indexing that defeats affine analyses.
__global__ void gather(float *out, float *in, int *idx, int n) {
	int i = tid();
	if (i < n) out[i] = in[idx[i]];
}
int main() {
	float *in = (float*)malloc(64 * 8);
	float *out = (float*)malloc(64 * 8);
	int *idx = (int*)malloc(64 * 8);
	for (int i = 0; i < 64; i++) in[i] = (float)(i * i);
	for (int i = 0; i < 64; i++) idx[i] = (i * 37 + 11) % 64;
	gather<<<1, 64>>>(out, in, idx, 64);
	float s = 0.0;
	for (int i = 0; i < 64; i++) s += out[i];
	print_float(s);
	free(in); free(out); free(idx);
	return 0;
}`,
		},
		{
			Feature: "weak type systems",
			Source: `
// The pointer reaches the kernel laundered through an integer; use-based
// inference still classifies it as a pointer.
__global__ void scale(long addr, int n) {
	float *v = (float*)addr;
	int i = tid();
	if (i < n) v[i] = v[i] * 2.0;
}
int main() {
	float *v = (float*)malloc(32 * 8);
	for (int i = 0; i < 32; i++) v[i] = (float)i;
	long laundered = (long)v;
	scale<<<1, 32>>>(laundered, 32);
	float s = 0.0;
	for (int i = 0; i < 32; i++) s += v[i];
	print_float(s);
	free(v);
	return 0;
}`,
		},
		{
			Feature: "pointer arithmetic",
			Source: `
// The kernel receives a pointer into the middle of an allocation unit
// and walks it with arbitrary arithmetic. Threads read v[7..23] and
// write v[33..46], so no thread reads what another writes.
__global__ void smooth(float *mid, int n) {
	int i = tid();
	if (i > 0 && i < n - 1) {
		float *p = mid + i - 8;
		p[24] = 0.5 * (*(p - 1) + *(p + 1));
	}
}
int main() {
	float *v = (float*)malloc(64 * 8);
	for (int i = 0; i < 64; i++) v[i] = (float)(i % 7);
	smooth<<<1, 16>>>(v + 16, 16);
	float s = 0.0;
	for (int i = 0; i < 64; i++) s += v[i];
	print_float(s);
	free(v);
	return 0;
}`,
		},
		{
			Feature: "max indirection 2",
			Source: `
// Doubly indirect live-ins: an array of row pointers (jagged array).
__global__ void rowsum(float **rows, float *out, int n, int m) {
	int i = tid();
	if (i < n) {
		float s = 0.0;
		float *row = rows[i];
		for (int j = 0; j < m; j++) s += row[j];
		out[i] = s;
	}
}
int main() {
	float **rows = (float**)malloc(8 * 8);
	for (int i = 0; i < 8; i++) {
		float *r = (float*)malloc(16 * 8);
		for (int j = 0; j < 16; j++) r[j] = (float)(i + j);
		rows[i] = r;
	}
	float *out = (float*)malloc(8 * 8);
	rowsum<<<1, 8>>>(rows, out, 8, 16);
	float s = 0.0;
	for (int i = 0; i < 8; i++) s += out[i];
	print_float(s);
	for (int i = 0; i < 8; i++) free(rows[i]);
	free(rows); free(out);
	return 0;
}`,
		},
	}
}

// Framework is one row of Table 1 (prior-work capabilities are the
// paper's reported values; the CGCM row is verified live by RunTable1).
type Framework struct {
	Name           string
	Optimizes      bool
	NeedsAnnots    bool
	Aliasing       bool
	Irregular      bool
	WeakTypes      bool
	PointerArith   bool
	MaxIndirection int
	Acyclic        string
}

// Table1Frameworks returns the comparison rows.
func Table1Frameworks() []Framework {
	return []Framework{
		{Name: "JCUDA", NeedsAnnots: true, Aliasing: true, Irregular: true, WeakTypes: true, MaxIndirection: 8, Acyclic: "No"},
		{Name: "Named Regions", NeedsAnnots: true, Aliasing: true, Irregular: true, PointerArith: true, MaxIndirection: 1, Acyclic: "No"},
		{Name: "Affine", NeedsAnnots: true, Aliasing: true, PointerArith: true, MaxIndirection: 1, Acyclic: "With Annotation"},
		{Name: "Inspector-Executor", NeedsAnnots: true, WeakTypes: true, PointerArith: true, MaxIndirection: 1, Acyclic: "No"},
		{Name: "CGCM", Optimizes: true, Aliasing: true, Irregular: true, WeakTypes: true, PointerArith: true, MaxIndirection: 2, Acyclic: "After Optimization"},
	}
}

// Table1Result records the live verification of CGCM's row.
type Table1Result struct {
	Feature string
	Passed  bool
	Detail  string
}

// RunTable1 verifies each feature program under CGCM (both unoptimized
// and optimized) against sequential execution.
func RunTable1() ([]Table1Result, error) {
	var out []Table1Result
	for _, fp := range FeaturePrograms() {
		// Reference semantics: the idealized inspector-executor runs the
		// kernels against host memory, which is exactly "what the program
		// means" independent of communication management.
		seq, err := core.CompileAndRun(fp.Feature, fp.Source, core.Options{Strategy: core.InspectorExecutor, Ablate: core.PassSet{core.PassDOALL: true}, Workers: Workers})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", fp.Feature, err)
		}
		res := Table1Result{Feature: fp.Feature, Passed: true}
		for _, s := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized} {
			rep, err := core.CompileAndRun(fp.Feature, fp.Source, core.Options{Strategy: s, Ablate: core.PassSet{core.PassDOALL: true}, Workers: Workers})
			if err != nil {
				res.Passed = false
				res.Detail = err.Error()
				break
			}
			if rep.Output != seq.Output {
				res.Passed = false
				res.Detail = fmt.Sprintf("%s output diverged", s)
				break
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return " - "
}

// RenderTable1 prints the applicability comparison plus the live CGCM
// feature verification.
func RenderTable1(w io.Writer, results []Table1Result) {
	fmt.Fprintln(w, "Table 1: comparison between communication systems")
	fmt.Fprintln(w, strings.Repeat("-", 104))
	fmt.Fprintf(w, "%-20s %-6s %-8s %-8s %-9s %-9s %-8s %-6s %-18s\n",
		"framework", "opti.", "annots", "aliasing", "irregular", "weaktypes", "ptrarith", "indir", "acyclic comm.")
	for _, f := range Table1Frameworks() {
		fmt.Fprintf(w, "%-20s %-6s %-8s %-8s %-9s %-9s %-8s %-6d %-18s\n",
			f.Name, yn(f.Optimizes), yn(f.NeedsAnnots), yn(f.Aliasing), yn(f.Irregular),
			yn(f.WeakTypes), yn(f.PointerArith), f.MaxIndirection, f.Acyclic)
	}
	fmt.Fprintln(w, strings.Repeat("-", 104))
	fmt.Fprintln(w, "CGCM capability row verified live:")
	for _, r := range results {
		status := "PASS"
		if !r.Passed {
			status = "FAIL (" + r.Detail + ")"
		}
		fmt.Fprintf(w, "  %-28s %s\n", r.Feature, status)
	}
}
