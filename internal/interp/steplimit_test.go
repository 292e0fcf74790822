package interp_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgcm/internal/interp"
	"cgcm/internal/ir"
	"cgcm/internal/irbuild"
	"cgcm/internal/machine"
	"cgcm/internal/minic/parser"
	"cgcm/internal/minic/sema"
	runtimelib "cgcm/internal/runtime"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// stepLimitPrograms print as they go, so the last printed line of a run
// cut short by MaxSteps shows exactly where execution stopped.
var stepLimitPrograms = []struct {
	name, src string
	workers   int
}{
	{"cpu-call-print", `
int sq(int x) { return x * x; }
int main() {
	int s = 0;
	for (int i = 0; i < 100000; i++) {
		s = s + sq(i);
		print_int(s);
	}
	return 0;
}`, 1},
	{"cpu-div-fault", `
int main() {
	int s = 100;
	for (int i = 0; i < 20; i++) {
		int d = 7 - i;
		s = s + 1000 / d;
		print_int(s);
	}
	return 0;
}`, 1},
	{"kernel-loop", `
__global__ void k(float *out, int n) {
	int t = tid();
	float acc = 0.0;
	for (int j = 0; j < n; j++) {
		float tmp[2];
		tmp[0] = acc;
		acc = tmp[0] + 1.0 * j;
	}
	out[t] = acc;
}
int main() {
	float *h = (float*)cuda_malloc(8 * 8);
	for (int r = 0; r < 1000; r++) {
		k<<<1, 8>>>(h, 40);
		print_int(r);
	}
	return 0;
}`, 1},
}

// stepLimits lands on, just before and just after block boundaries of
// every program: dense runs early on, across the first step-batch
// boundary, and where the pool is clamped after several batches.
func stepLimits() []int64 {
	var ls []int64
	for _, r := range [][2]int64{{1, 60}, {200, 260}, {8180, 8210}, {24570, 24600}} {
		for v := r[0]; v <= r[1]; v++ {
			ls = append(ls, v)
		}
	}
	return ls
}

// TestStepLimitTable pins, for every (program, MaxSteps) pair, the
// instruction at which the step limit (or a program fault) stops the
// run: its printed output, its error text and the steps drawn. It is
// the exactness check for the interpreter's step accounting, frozen
// from the per-instruction implementation. Regenerate with:
//
//	go test ./internal/interp -run TestStepLimitTable -update-golden
func TestStepLimitTable(t *testing.T) {
	var got strings.Builder
	for _, p := range stepLimitPrograms {
		mod := buildMod(t, p.src)
		for _, lim := range stepLimits() {
			m := machine.New(machine.DefaultCostModel())
			rt := runtimelib.New(m)
			var out bytes.Buffer
			in, err := interp.New(mod, m, rt, &out)
			if err != nil {
				t.Fatalf("interp.New: %v", err)
			}
			in.Lim = interp.Limits{MaxSteps: lim}
			in.Workers = p.workers
			_, rerr := in.Run()
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			errText := "<nil>"
			if rerr != nil {
				errText = rerr.Error()
			}
			fmt.Fprintf(&got, "%s max=%d steps=%d lines=%d last=%q err=%q\n",
				p.name, lim, in.Steps(), len(lines), lines[len(lines)-1], errText)
		}
	}
	golden := filepath.Join("testdata", "steplimit.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("step-limit table has %d rows, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, gl[i], wl[i])
		}
	}
}

// buildMod lowers mini-C source to IR without running any pass.
func buildMod(t testing.TB, src string) *ir.Module {
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
