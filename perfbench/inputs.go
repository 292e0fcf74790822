package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cgcm/internal/bench"
	"cgcm/internal/core"
)

// goldensJSON holds the SHA-256 of every suite program's output under
// the Sequential strategy, frozen when this benchmark was added. Every
// strategy, mode and served request must print exactly this output; the
// hashes do not come from the code under test.
//
//go:embed goldens.json
var goldensJSON []byte

// goldens maps program name to output SHA-256 (hex).
type goldens map[string]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// check reports a mismatch between a program's output and its golden.
func (g goldens) check(program, output string) error {
	want, ok := g[program]
	if !ok {
		return fmt.Errorf("%s: no golden output hash", program)
	}
	if got := sha256Hex(output); got != want {
		return fmt.Errorf("%s: output sha256 %s, golden %s", program, got[:12], want[:12])
	}
	return nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// baselineRow is the part of a committed BENCH_<n>.json row the
// benchmark checks: simulated walls, transfer totals and the limiting
// factor. Decoded here, not through the code under test.
type baselineRow struct {
	Program       string  `json:"program"`
	WallSeq       float64 `json:"wall_seq"`
	WallIE        float64 `json:"wall_inspector"`
	WallUnopt     float64 `json:"wall_cgcm_unopt"`
	WallOpt       float64 `json:"wall_cgcm_opt"`
	Limiting      string  `json:"limiting"`
	XferBytesUn   int64   `json:"xfer_bytes_cgcm_unopt"`
	XferCopiesUn  int64   `json:"xfer_copies_cgcm_unopt"`
	XferBytesOpt  int64   `json:"xfer_bytes_cgcm_opt"`
	XferCopiesOpt int64   `json:"xfer_copies_cgcm_opt"`
}

// loadBaseline reads a committed simulated-time baseline from the
// repository root.
func loadBaseline(root, name string) (map[string]baselineRow, error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows []baselineRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := make(map[string]baselineRow, len(doc.Rows))
	for _, r := range doc.Rows {
		out[r.Program] = r
	}
	return out, nil
}

// checkSim compares one report's simulated results with its baseline
// row: the wall for every strategy, and transfer bytes and copies for
// the two CGCM strategies. Simulated time is deterministic, so equality
// is exact.
func checkSim(row baselineRow, ok bool, s core.Strategy, rep *core.Report) error {
	if !ok {
		return fmt.Errorf("no baseline row")
	}
	st := rep.Stats
	bytes, copies := st.BytesHtoD+st.BytesDtoH, st.NumHtoD+st.NumDtoH
	var wall float64
	var wantBytes, wantCopies int64 = -1, -1
	switch s {
	case core.Sequential:
		wall = row.WallSeq
	case core.InspectorExecutor:
		wall = row.WallIE
	case core.CGCMUnoptimized:
		wall, wantBytes, wantCopies = row.WallUnopt, row.XferBytesUn, row.XferCopiesUn
	case core.CGCMOptimized:
		wall, wantBytes, wantCopies = row.WallOpt, row.XferBytesOpt, row.XferCopiesOpt
	}
	if st.Wall != wall {
		return fmt.Errorf("simulated wall %v, baseline %v", st.Wall, wall)
	}
	if wantBytes >= 0 && (bytes != wantBytes || copies != wantCopies) {
		return fmt.Errorf("transfers %d B / %d copies, baseline %d B / %d copies", bytes, copies, wantBytes, wantCopies)
	}
	return nil
}

// servePrograms are the suite programs whose optimized run is short
// enough to serve at interactive rates.
var servePrograms = []string{
	"adi", "atax", "bicg", "covariance", "doitgen", "gemver", "gesummv", "gramschmidt",
	"seidel", "lu", "ludcmp", "cfd", "kmeans", "lud", "nw", "fm",
}

// cell is one (program, strategy, mode) combination of a workload's
// matrix; a job runs one cell.
type cell struct {
	prog  bench.Program
	strat core.Strategy
	async bool
}

func (c cell) key() string {
	k := c.prog.Name + "/" + stratName(c.strat)
	if c.async {
		k += "+async"
	}
	return k
}

// stratName is the short strategy label used in keys and metric names.
func stratName(s core.Strategy) string {
	return [...]string{"seq", "ie", "unopt", "opt"}[s]
}

// matrix crosses every suite program with the given strategies.
func matrix(strats []core.Strategy, async bool) []cell {
	var out []cell
	for _, p := range bench.All() {
		for _, s := range strats {
			out = append(out, cell{prog: p, strat: s, async: async})
		}
	}
	return out
}
