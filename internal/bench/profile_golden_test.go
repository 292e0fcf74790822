package bench_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// TestFoldedProfileGolden pins the exact profiler's folded-stack output
// (the -prof-folded format) for two optimized programs byte for byte:
// every simulated GPU op credited to its source line must survive any
// change to how the interpreter counts them. Regenerate with:
//
//	go test ./internal/bench -run TestFoldedProfileGolden -update-golden
func TestFoldedProfileGolden(t *testing.T) {
	for _, name := range []string{"gemm", "srad"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("no program %q", name)
			}
			rep, err := core.CompileAndRun(p.Name, p.Source, core.Options{Strategy: core.CGCMOptimized, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.Profile.WriteFolded(&got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".opt.folded")
			if *bench.UpdateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("folded profile changed:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
			}
		})
	}
}
