package bench_test

import (
	"bytes"
	"strings"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

func TestTable1FeatureProgramsPass(t *testing.T) {
	results, err := bench.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("feature programs = %d, want 5", len(results))
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("%s: %s", r.Feature, r.Detail)
		}
	}
	// Every feature program must be deterministic on a parallel engine:
	// a kernel whose threads read what other threads write would print
	// different results for different worker counts.
	for _, fp := range bench.FeaturePrograms() {
		for _, s := range []core.Strategy{core.CGCMUnoptimized, core.CGCMOptimized} {
			var outs [2]string
			for i, w := range []int{1, 4} {
				rep, err := core.CompileAndRun(fp.Feature, fp.Source, core.Options{
					Strategy: s, Ablate: core.PassSet{core.PassDOALL: true}, Workers: w})
				if err != nil {
					t.Fatalf("%s [%s] workers=%d: %v", fp.Feature, s, w, err)
				}
				outs[i] = rep.Output
			}
			if outs[0] != outs[1] {
				t.Errorf("%s [%s]: output differs between 1 and 4 workers:\n%q\n%q", fp.Feature, s, outs[0], outs[1])
			}
		}
	}
	var buf bytes.Buffer
	bench.RenderTable1(&buf, results)
	for _, want := range []string{"CGCM", "JCUDA", "Named Regions", "PASS"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestFigure2ScheduleShapes(t *testing.T) {
	schedules, err := bench.CollectSchedules()
	if err != nil {
		t.Fatal(err)
	}
	if len(schedules) != 3 {
		t.Fatalf("schedules = %d", len(schedules))
	}
	cyclic, inspector, acyclic := schedules[0], schedules[1], schedules[2]
	// The acyclic schedule must beat both cyclic patterns (Figure 2's
	// whole point).
	if acyclic.Wall >= cyclic.Wall || acyclic.Wall >= inspector.Wall {
		t.Errorf("acyclic %.1fus not fastest (cyclic %.1fus, inspector %.1fus)",
			acyclic.Wall*1e6, cyclic.Wall*1e6, inspector.Wall*1e6)
	}
	// Events must exist on all three lanes of each schedule.
	for _, s := range schedules {
		if len(s.Spans) == 0 {
			t.Errorf("%s: empty trace", s.Name)
		}
	}
	var buf bytes.Buffer
	bench.RenderFigure2(&buf, schedules)
	out := buf.String()
	for _, want := range []string{"CPU ", "Xfer", "GPU ", "K", "H", "D"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered schedule missing %q", want)
		}
	}
}

// TestApplicabilityGuard verifies the NR/IE guard discriminates: a
// gather kernel (data-dependent indexing) and a jagged-array kernel
// (double indirection) are CGCM-only; a dense kernel is universal.
func TestApplicabilityGuard(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		wantCGCM   int
		wantOthers int
	}{
		{"dense", `
__global__ void k(float *v, int n) {
	int i = tid();
	if (i < n) v[i] = 1.0;
}
int main() {
	float *v = (float*)malloc(64);
	k<<<1, 8>>>(v, 8);
	free(v);
	return 0;
}`, 1, 1},
		{"gather", `
__global__ void k(float *out, float *in, int *idx, int n) {
	int i = tid();
	if (i < n) out[i] = in[idx[i]];
}
int main() {
	float *out = (float*)malloc(64);
	float *in = (float*)malloc(64);
	int *idx = (int*)malloc(64);
	k<<<1, 8>>>(out, in, idx, 8);
	free(out); free(in); free(idx);
	return 0;
}`, 1, 0},
		{"jagged", `
__global__ void k(float **rows, int n) {
	int i = tid();
	if (i < n) {
		float *r = rows[i];
		r[0] = 1.0;
	}
}
int main() {
	float **rows = (float**)malloc(64);
	k<<<1, 8>>>(rows, 8);
	free(rows);
	return 0;
}`, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cgcmN, ie, nr, err := bench.ApplicabilityOf(c.name, c.src)
			if err != nil {
				t.Fatal(err)
			}
			if cgcmN != c.wantCGCM {
				t.Errorf("CGCM kernels = %d, want %d", cgcmN, c.wantCGCM)
			}
			if ie != c.wantOthers || nr != c.wantOthers {
				t.Errorf("IE/NR = %d/%d, want %d", ie, nr, c.wantOthers)
			}
		})
	}
}

// TestRunProgramInvariants spot-checks the harness on two contrasting
// programs without running the whole suite.
func TestRunProgramInvariants(t *testing.T) {
	for _, name := range []string{"jacobi-2d-imper", "gramschmidt"} {
		p, ok := bench.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		row, err := bench.RunProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if row.SpeedupOpt < row.SpeedupUnopt {
			t.Errorf("%s: optimization reduced performance (%f < %f)",
				name, row.SpeedupOpt, row.SpeedupUnopt)
		}
		if row.KernelsCGCM == 0 {
			t.Errorf("%s: no kernels", name)
		}
		if row.GPUPctOpt < 0 || row.GPUPctOpt > 100 || row.CommPctOpt < 0 || row.CommPctOpt > 100 {
			t.Errorf("%s: nonsensical percentages %f %f", name, row.GPUPctOpt, row.CommPctOpt)
		}
	}
}

// TestRenderers ensures the table/figure renderers produce the expected
// row structure from synthetic rows.
func TestRenderers(t *testing.T) {
	p, _ := bench.ByName("seidel")
	row, err := bench.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var fig4, tab3 bytes.Buffer
	bench.RenderFigure4(&fig4, []*bench.Row{row})
	bench.RenderTable3(&tab3, []*bench.Row{row})
	if !strings.Contains(fig4.String(), "seidel") || !strings.Contains(fig4.String(), "geomean") {
		t.Error("Figure 4 rendering incomplete")
	}
	if !strings.Contains(tab3.String(), "seidel") || !strings.Contains(tab3.String(), "Other") {
		t.Error("Table 3 rendering incomplete")
	}
}
