package bench_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/metrics"
)

// TestAllProgramsAgree compiles and runs every benchmark under all four
// strategies and checks the outputs are identical — the end-to-end
// correctness property of communication management. Each run's
// interpreter steps, CPU and GPU op counts and simulated wall are also
// pinned against testdata/exactness.golden.txt, so a change to the
// interpreter's accounting shows up as a diff, not as a drifted baseline.
// Regenerate with:
//
//	go test ./internal/bench -run TestAllProgramsAgree -update-golden
func TestAllProgramsAgree(t *testing.T) {
	pins := newPinFile(t, filepath.Join("testdata", "exactness.golden.txt"))
	for _, p := range bench.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			run := func(s core.Strategy) *core.Report {
				rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: s, Metrics: metrics.New()})
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				pins.check(t, p.Name+" "+s.String(), exactnessPin(rep))
				return rep
			}
			seq := run(core.Sequential)
			if seq.Output == "" {
				t.Fatal("sequential produced no output")
			}
			for _, s := range []core.Strategy{core.InspectorExecutor, core.CGCMUnoptimized, core.CGCMOptimized} {
				rep := run(s)
				if rep.Output != seq.Output {
					t.Errorf("%s output diverged:\n got %q\nwant %q", s, rep.Output, seq.Output)
				}
			}
		})
	}
}

// exactnessPin renders the simulated quantities a host-speed change
// must leave bit-identical: interpreter steps, CPU and GPU ops, and the
// wall as an exactly round-tripping float.
func exactnessPin(rep *core.Report) string {
	return fmt.Sprintf("steps=%d cpu_ops=%d gpu_ops=%d wall=%s",
		int64(rep.Metrics.Gauge("interp.steps")), rep.Stats.CPUOps, rep.Stats.GPUOps,
		strconv.FormatFloat(rep.Stats.Wall, 'g', -1, 64))
}

// pinFile is a golden file of "key<TAB>value" lines checked from
// parallel subtests. With -update-golden it collects every pin instead
// and rewrites the file, sorted by key, once all subtests finish.
type pinFile struct {
	path string
	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

func newPinFile(t *testing.T, path string) *pinFile {
	t.Helper()
	pf := &pinFile{path: path, want: map[string]string{}, got: map[string]string{}}
	if *bench.UpdateGolden {
		t.Cleanup(func() {
			keys := make([]string, 0, len(pf.got))
			for k := range pf.got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var b strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&b, "%s\t%s\n", k, pf.got[k])
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
		return pf
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if k, v, ok := strings.Cut(line, "\t"); ok {
			pf.want[k] = v
		}
	}
	return pf
}

func (pf *pinFile) check(t *testing.T, key, got string) {
	t.Helper()
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if *bench.UpdateGolden {
		pf.got[key] = got
		return
	}
	if want, ok := pf.want[key]; !ok {
		t.Errorf("%s: no pin in %s (regenerate with -update-golden)", key, pf.path)
	} else if got != want {
		t.Errorf("%s: got %s, pinned %s", key, got, want)
	}
}

// TestKernelCounts verifies the DOALL parallelizer finds roughly the
// kernel structure the paper reports (exact counts for most programs;
// substitutions documented in EXPERIMENTS.md may differ by a couple).
func TestKernelCounts(t *testing.T) {
	for _, p := range bench.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := core.Compile(p.Name, p.Source, core.Options{Strategy: core.CGCMUnoptimized})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			kernels := 0
			for _, f := range prog.Module.Funcs {
				if f.Kernel {
					kernels++
				}
			}
			if kernels == 0 {
				t.Errorf("no kernels created (paper reports %d)", p.PaperKernels)
			}
			diff := kernels - p.PaperKernels
			if diff < -2 || diff > 3 {
				t.Errorf("kernels = %d, paper reports %d", kernels, p.PaperKernels)
			}
			t.Logf("%s: %d kernels (paper %d)", p.Name, kernels, p.PaperKernels)
		})
	}
}
