package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// demoSource mirrors the cgcmc test fixture: a promotable timestep loop
// over two heap units, plus loops the parallelizer rejects.
const demoSource = `int main() {
	float *grid = (float*)malloc(32 * 8);
	float *next = (float*)malloc(32 * 8);
	for (int i = 0; i < 32; i++) grid[i] = 1.0 * i;
	for (int t = 0; t < 6; t++) {
		for (int i = 1; i < 31; i++) next[i] = 0.5 * (grid[i - 1] + grid[i + 1]);
		for (int i = 1; i < 31; i++) grid[i] = next[i];
	}
	float total = 0.0;
	for (int i = 0; i < 32; i++) total += grid[i];
	print_float(total);
	return 0;
}`

func writeDemo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "demo.c")
	if err := os.WriteFile(path, []byte(demoSource), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfN covers the -prof-n flag and its -prof-top alias: both bound
// the hot-lines table, visible in the "(top N of M)" header.
func TestProfN(t *testing.T) {
	path := writeDemo(t)
	for _, tc := range []struct {
		flag string
		n    string
		want string
	}{
		{"-prof-n", "1", "(top 1 of"},
		{"-prof-n", "3", "(top 3 of"},
		{"-prof-top", "2", "(top 2 of"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-prof", tc.flag, tc.n, path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s %s: exit %d, stderr:\n%s", tc.flag, tc.n, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %s: profile header missing %q:\n%s", tc.flag, tc.n, tc.want, stderr.String())
		}
	}
}

// TestRemarksIncludeRuntime checks that cgcmrun -remarks carries the
// execution-time layer: ablating map promotion leaves the grid cyclic,
// and the runtime remark names its allocation site.
func TestRemarksIncludeRuntime(t *testing.T) {
	path := writeDemo(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-remarks", "-ablate", "mappromo", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "remark[runtime]") || !strings.Contains(out, "stayed cyclic") {
		t.Fatalf("no runtime remark for the cyclic unit:\n%s", out)
	}
	// The allocation site (malloc on line 2) must anchor the remark.
	if !strings.Contains(out, path+":2: remark[runtime]") {
		t.Fatalf("runtime remark not anchored to the allocation site:\n%s", out)
	}
}

// TestTraceOutSchemaUnderAblation exercises -trace-out with a pass
// ablated: the exported document must stay valid Chrome trace-event
// JSON (the bench suite covers every PassSet; this guards the CLI path).
func TestTraceOutSchemaUnderAblation(t *testing.T) {
	path := writeDemo(t)
	tracePath := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-out", tracePath, "-ablate", "gluekernel", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	path := writeDemo(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-strategy", "bogus", path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestHostProfileFlags: -cpuprofile and -memprofile write pprof
// profiles (gzip-compressed protobuf) of the host process, and a
// profile that cannot be created fails the command.
func TestHostProfileFlags(t *testing.T) {
	path := writeDemo(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cpuprofile", cpu, "-memprofile", mem, path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(p), len(data))
		}
	}
	stderr.Reset()
	bad := filepath.Join(dir, "missing", "cpu.pprof")
	if code := run([]string{"-cpuprofile", bad, path}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: exit %d, stderr %q", code, stderr.String())
	}
}
