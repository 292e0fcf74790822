// Command perfbench is the repository's host-time benchmark. It drives
// the CGCM system only through public entry points — core.Compile,
// Program.Run/RunWith, Program.Phases, critpath.Analyze,
// trace.WriteChrome, runlog.Store.Append, server.DecodeRequest and
// server.Handler (in process, no sockets) — checks every output, and
// prints its metrics as one JSON line.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) runs the same workload with the benchmark's span
// recorder on and prints the per-layer metrics. README.md lists the
// workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, so one cold start does not dominate it.
const setupReps = 15

// env describes where and how a result was measured.
type env struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	ServerWorkers int    `json:"server_workers"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Tree          string `json:"tree_sha256"`
}

// config is what every workload receives.
type config struct {
	root    string // repository root (BENCH_<n>.json, sources)
	scratch string // directory for throwaway files
	seed    int64
	budget  time.Duration // how long the timed phase measures
	workers int           // engine and server worker count (= nproc)
	rec     *recorder     // nil in the untraced run
}

// workload is one named benchmark workload. setup prepares it (it is
// timed, and repeated setupReps times); the returned state's run
// executes the timed phase.
type workload struct {
	name  string
	setup func(cfg *config) (state, error)
}

// state is a set-up workload ready to measure.
type state interface {
	// run executes the timed phase and fills res.
	run(cfg *config, res *result) error
	// close releases what setup acquired.
	close()
}

var workloads = []workload{
	{"eval-sync", setupEvalSync},
	{"eval-async-observed", setupObserved},
	{"compile-all", setupCompileAll},
	{"serve-mixed", setupServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: eval-sync, eval-async-observed, compile-all, serve-mixed")
	seed := fset.Int64("seed", 1, "workload seed: job order, tenants, programs, variants and arrival times")
	seconds := fset.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fset.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	root := fset.String("root", ".", "repository root")
	scratch := fset.String("scratch", ".bench_build", "directory for throwaway files, inside the checkout")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &config{
		root: *root, scratch: *scratch, seed: *seed,
		budget: time.Duration(*seconds) * time.Second, workers: nproc,
	}
	if *traceFlag == 1 {
		cfg.rec = newRecorder()
	}
	e := env{
		Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: cfg.rec != nil,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), EngineWorkers: nproc, ServerWorkers: nproc,
		GoVersion: runtime.Version(), Commit: commit(), Tree: treeHash(*root),
	}

	res := newResult()
	if err := measure(wl, cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	envLine, _ := json.Marshal(e)
	fmt.Fprintf(stdout, "perfbench-env %s\n", envLine)
	for _, line := range res.info {
		fmt.Fprintf(stdout, "perfbench-info %s\n", line)
	}
	for i, msg := range res.errs {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(res.errs)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", msg)
	}
	out, err := res.render(cfg.rec != nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure sets the workload up setupReps times, then runs the timed
// phase on the last set-up state.
func measure(wl *workload, cfg *config, res *result) error {
	var st state
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		s, err := wl.setup(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		st = s
	}
	defer st.close()
	res.e2e["setup_s"] = median(setups)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res.rss = startRSS()
	err := st.run(cfg, res)
	rss := res.rss.finish()
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.layer["host.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.layer["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res.e2e["rss_p90_mb"] = quantile(rss, 0.9)
	res.note("rss samples=%d median=%.3f p90=%.3f max=%.3f MB", len(rss), median(rss), quantile(rss, 0.9), quantile(rss, 1))
	if cfg.rec != nil {
		return writeTrace(cfg, wl.name, res)
	}
	return nil
}

// writeTrace finishes a traced run: it writes the recorded spans to
// <scratch>/spans-<workload>-<seed>.json, notes each span name's self
// time, and notes the end-to-end figures measured while tracing, whose
// difference from an untraced run of the same seed is the tracing
// overhead.
func writeTrace(cfg *config, workload string, res *result) error {
	spans, cost := cfg.rec.snapshot()
	res.layer["trace.recorder_overhead_pct"] = 100 * cost.Seconds() / res.timedWall.Seconds()
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-%d.json", workload, cfg.seed))
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f", n, ms(self[n]))
	}
	res.note("self time ms (%d spans in %s):%s", len(spans), path, b.String())
	b.Reset()
	for _, d := range e2eMetrics {
		fmt.Fprintf(&b, " %s=%.6g", d.name, res.e2e[d.name])
	}
	res.note("end-to-end while traced:%s", b.String())
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// rssSampler reads the process's resident set (VmRSS, MiB) every
// 50ms. A high percentile of the samples tracks the memory peak without
// hanging on one garbage-collection spike the way VmHWM does.
type rssSampler struct {
	mu      sync.Mutex
	samples []float64
	frozen  bool
	stop    chan struct{}
	done    chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if v, ok := procStatusMB("VmRSS:"); ok {
				s.mu.Lock()
				if !s.frozen {
					s.samples = append(s.samples, v)
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// freeze stops recording samples; the rest of the run is not counted.
func (s *rssSampler) freeze() {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

// finish stops the sampler, waits for it to exit and returns the
// samples (the Go runtime's total from the OS if /proc gave none).
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return []float64{float64(m.Sys) / (1 << 20)}
	}
	return s.samples
}

// procStatusMB reads one kB field of /proc/self/status in MiB.
func procStatusMB(field string) (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

// commit returns the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// treeHash identifies the measured source tree without VCS metadata:
// the SHA-256 over go.mod and every .go file under internal/ and cmd/,
// in path order.
func treeHash(root string) string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
