package interp_test

import (
	"io"
	"testing"

	"cgcm/internal/interp"
	"cgcm/internal/machine"
	runtimelib "cgcm/internal/runtime"
)

// Layer benchmarks for the interpreter: dispatch (arithmetic, branches,
// calls) and the memory-access path (inline-cache hits, generation-bump
// misses, inspector recording, kernel allocas). Each iteration runs the
// whole program on a fresh machine with one engine worker, and reports
// ns per interpreted step so results compare across programs.
//
//	go test -run NONE -bench 'Dispatch|Memory' ./internal/interp/

func benchProgram(b *testing.B, src string, mode interp.LaunchMode) {
	mod := buildMod(b, src)
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultCostModel())
		rt := runtimelib.New(m)
		in, err := interp.New(mod, m, rt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		in.Mode = mode
		in.Workers = 1
		if _, err := in.Run(); err != nil {
			b.Fatal(err)
		}
		steps = in.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/step")
}

func BenchmarkDispatchIntArith(b *testing.B) {
	benchProgram(b, `
int main() {
	int s = 1;
	for (int i = 0; i < 200000; i++) {
		s = (s * 7 + i) % 1000003;
		s = s ^ (i << 2);
		s = s - (i >> 1) + (i & 15);
	}
	print_int(s);
	return 0;
}`, interp.Managed)
}

func BenchmarkDispatchFloatArith(b *testing.B) {
	benchProgram(b, `
int main() {
	float x = 1.0;
	float y = 0.5;
	for (int i = 0; i < 200000; i++) {
		x = x * 0.999 + y / 3.0;
		y = y - x * 0.001;
	}
	print_float(x + y);
	return 0;
}`, interp.Managed)
}

func BenchmarkDispatchBranch(b *testing.B) {
	benchProgram(b, `
int main() {
	int a = 0;
	int c = 0;
	for (int i = 0; i < 200000; i++) {
		if (i % 3 == 0) { a = a + 1; } else { c = c + 2; }
		if (a > c) { a = a - 1; }
	}
	print_int(a + c);
	return 0;
}`, interp.Managed)
}

func BenchmarkDispatchCall(b *testing.B) {
	benchProgram(b, `
int add3(int x, int y, int z) { return x + y + z; }
int main() {
	int s = 0;
	for (int i = 0; i < 100000; i++) {
		s = add3(s, i, 1) % 1000003;
	}
	print_int(s);
	return 0;
}`, interp.Managed)
}

func BenchmarkMemoryInlineHit(b *testing.B) {
	benchProgram(b, `
int main() {
	float *a = (float*)malloc(1024 * 8);
	for (int r = 0; r < 100; r++) {
		for (int i = 1; i < 1024; i++) {
			a[i] = a[i - 1] + 1.0;
		}
	}
	print_float(a[1023]);
	free(a);
	return 0;
}`, interp.Managed)
}

// Every free bumps the machine generation, so each iteration's array
// accesses miss their inline caches and re-resolve the segment.
func BenchmarkMemoryGenBumpMiss(b *testing.B) {
	benchProgram(b, `
int main() {
	float *a = (float*)malloc(1024 * 8);
	for (int i = 0; i < 20000; i++) {
		float *t = (float*)malloc(8);
		free(t);
		a[i % 1024] = a[(i + 1) % 1024] + 1.0;
	}
	print_float(a[5]);
	free(a);
	return 0;
}`, interp.Managed)
}

// Inspector-mode launches record every kernel access's allocation unit.
func BenchmarkMemoryInspector(b *testing.B) {
	benchProgram(b, `
__global__ void k(float *a, float *b, int n) {
	int t = tid();
	for (int j = 0; j < n; j++) {
		a[t] = a[t] + b[j];
	}
}
int main() {
	float *a = (float*)malloc(256 * 8);
	float *b = (float*)malloc(64 * 8);
	for (int i = 0; i < 64; i++) b[i] = 1.0 * i;
	for (int r = 0; r < 10; r++) {
		k<<<4, 64>>>(a, b, 64);
	}
	print_float(a[7]);
	return 0;
}`, interp.Inspector)
}

// Every kernel thread allocates a local array (a kernel alloca).
func BenchmarkMemoryKernelAlloca(b *testing.B) {
	benchProgram(b, `
__global__ void k(float *out) {
	int t = tid();
	float tmp[4];
	for (int j = 0; j < 4; j++) tmp[j] = 1.0 * (t + j);
	out[t] = tmp[0] + tmp[3];
}
int main() {
	float *h = (float*)cuda_malloc(1024 * 8);
	for (int r = 0; r < 20; r++) {
		k<<<16, 64>>>(h);
	}
	return 0;
}`, interp.Managed)
}
