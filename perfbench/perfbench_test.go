package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, n := range []int{20, 37, 96, 100, 200, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			v, eff, err := tailQuantile(xs, q)
			if err != nil {
				t.Fatalf("n=%d q=%v: %v", n, q, err)
			}
			if want := min(q, float64(n-minTail)/float64(n)); eff != want {
				t.Errorf("n=%d q=%v: used quantile %v, want %v", n, q, eff, want)
			}
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d q=%v: %d samples beyond %v, want >= %d", n, q, beyond, v, minTail)
			}
			// The rule picks the highest such percentile: one sample
			// further out leaves fewer than minTail beyond.
			if eff < q && beyond > minTail {
				t.Errorf("n=%d q=%v: %d samples beyond, a higher percentile was supportable", n, q, beyond)
			}
		}
	}
	if _, err := supportedQuantile(2*minTail-1, 0.9); err == nil {
		t.Error("too few samples accepted")
	}
	if got := supportedQuantileMust(t, 200, 0.95); got != 0.95 {
		t.Errorf("200 samples: p95 should be supported, got %v", got)
	}
	if got := supportedQuantileMust(t, 100, 0.95); got != 0.90 {
		t.Errorf("100 samples: p95 should fall back to p90, got %v", got)
	}
}

// TestQuantile pins the Harrell-Davis estimator to closed forms: the
// incomplete beta against its binomial sum, medians of symmetric data,
// and the extremes at q = 0 and 1.
func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	// I_x(2, 3) = P(Binomial(4, x) >= 2).
	if got, want := betaInc(2, 3, 0.4), 6*0.16*0.36+4*0.064*0.6+0.0256; !near(got, want) {
		t.Errorf("I_0.4(2,3) = %v, want %v", got, want)
	}
	if got := betaInc(500, 500, 0.5); !near(got, 0.5) {
		t.Errorf("I_0.5(500,500) = %v, want 0.5", got)
	}
	xs := []float64{10, 3, 7, 1, 2, 9, 4, 8, 6, 5}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 10 {
		t.Errorf("extremes: got %v and %v, want 1 and 10", quantile(xs, 0), quantile(xs, 1))
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

func supportedQuantileMust(t *testing.T, n int, q float64) float64 {
	t.Helper()
	eff, err := supportedQuantile(n, q)
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

// TestTimeFromDue drives a phase against a handler that serves one
// request at a time. Requests due together must report latencies that
// include the wait the stall imposed on them, not just their own time
// in the handler.
func TestTimeFromDue(t *testing.T) {
	const hold = 40 * time.Millisecond
	var mu sync.Mutex
	resp, _ := json.Marshal(map[string]any{"output": "x", "queue_ns": 0})
	s := &serveState{
		sources: map[string]string{servePrograms[0]: "int main(){return 0;}"},
		handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			time.Sleep(hold)
			w.Write(resp)
		}),
	}
	arr := make([]arrival, 4)
	for i := range arr {
		arr[i] = arrival{id: int64(i)}
	}
	outs := s.phase(&config{}, "stall", arr, -1)
	lat := latencies(outs)
	var worst float64
	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, o.status)
		}
		if got, want := lat[i], ms(o.done-o.a.due); got != want {
			t.Errorf("request %d: latency %v, want done-due %v", i, got, want)
		}
		if o.sent-o.a.due > hold {
			t.Errorf("request %d sent %v after due: the generator must not wait for replies", i, o.sent-o.a.due)
		}
		worst = max(worst, lat[i])
	}
	if worst < ms(4*hold)*0.95 {
		t.Errorf("worst latency %.1fms, want >= %.1fms: queueing behind the stall was not counted", worst, ms(4*hold))
	}

	// A refused request counts as missing the latency limit.
	refused := []outcome{{status: http.StatusTooManyRequests, done: time.Millisecond}}
	if l := latencies(refused)[0]; l <= ms(latencyLimit) {
		t.Errorf("refused request latency %vms does not miss the %v limit", l, latencyLimit)
	}
}

func TestGoldenRejectsFlippedByte(t *testing.T) {
	g := goldens{"p": sha256Hex("checksum 12345\n")}
	if err := g.check("p", "checksum 12345\n"); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	out := []byte("checksum 12345\n")
	for i := range out {
		flipped := append([]byte(nil), out...)
		flipped[i] ^= 1
		if err := g.check("p", string(flipped)); err == nil {
			t.Errorf("output with byte %d flipped accepted", i)
		}
	}
	if err := g.check("q", "checksum 12345\n"); err == nil {
		t.Error("program without a golden accepted")
	}
	real, err := loadGoldens()
	if err != nil || len(real) != 24 {
		t.Fatalf("committed goldens: %d entries, %v", len(real), err)
	}
}

// synthetic returns one block of a ladder step's outcomes for a server
// that keeps up below capacity and leaves 10% of requests slow above it.
func synthetic(rate, capacity float64) []outcome {
	outs := make([]outcome, len(tenants)*len(servePrograms))
	for i := range outs {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		lat := 50 * time.Millisecond
		if rate > capacity && i%10 == 0 {
			lat = 2 * latencyLimit
		}
		outs[i] = outcome{a: arrival{due: due}, done: due + lat, status: http.StatusOK}
	}
	return outs
}

func TestMaxRPSPicksLadderStep(t *testing.T) {
	capacity := ladderRate(3) * 1.01 // steps <= 3 keep up, step 4 does not
	for _, start := range []int{2, 3, 4, 5} {
		var probed []int
		best, ok := searchLadder(start, func(k int) bool {
			probed = append(probed, k)
			return keptUp(synthetic(ladderRate(k), capacity))
		})
		if !ok || best != 3 {
			t.Errorf("start %d: best step %d (ok=%v), want 3; probed %v", start, best, ok, probed)
		}
	}
	// The search is bounded: from too far below it reports the best step
	// it reached.
	start := 3 - maxProbes - 1
	if best, _ := searchLadder(start, func(k int) bool { return k <= 3 }); best != start+maxProbes-1 {
		t.Errorf("bounded search from step %d: best %d, want %d", start, best, start+maxProbes-1)
	}
	// A backlog still draining past the limit after the last arrival
	// fails the step, even when few requests were slow.
	outs := synthetic(10, 100)
	outs[5].done = outs[len(outs)-1].a.due + 2*latencyLimit
	if keptUp(outs) {
		t.Error("undrained backlog kept up")
	}
	// Two refusals in 48 are within the 5% allowance; three are not.
	outs = synthetic(10, 100)
	outs[0].status = http.StatusTooManyRequests
	outs[1].status = http.StatusTooManyRequests
	if !keptUp(outs) {
		t.Error("2 refusals in 48 failed the step")
	}
	outs[2].status = http.StatusServiceUnavailable
	if keptUp(outs) {
		t.Error("3 refusals in 48 kept up")
	}
	// No step keeps up: no answer, after a bounded number of probes.
	probes := 0
	if _, ok := searchLadder(0, func(int) bool { probes++; return false }); ok || probes != maxProbes {
		t.Errorf("all-fail ladder: ok=%v after %d probes", ok, probes)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	const blocks = 5
	a := schedule(7, "high", highRate, blocks, 100)
	b := schedule(7, "high", highRate, blocks, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, "high", highRate, blocks, 100)) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, "low", highRate, blocks, 100)) {
		t.Error("different phases gave the same schedule")
	}
	pairs := len(tenants) * len(servePrograms)
	if len(a) != blocks*pairs {
		t.Fatalf("%d arrivals, want %d", len(a), blocks*pairs)
	}
	if span, want := a[len(a)-1].due.Seconds(), float64(len(a))/highRate; span < 0.95*want || span > want {
		t.Errorf("%d arrivals span %.2fs at %v/s, want just under %.2fs", len(a), span, highRate, want)
	}
	count := make(map[[2]int]int)
	misses := 0
	for i, x := range a {
		if x.id != 100+int64(i) || (i > 0 && x.due <= a[i-1].due) {
			t.Fatalf("arrival %d: id %d due %v out of order", i, x.id, x.due)
		}
		count[[2]int{x.tenant, x.program}]++
		if x.miss {
			misses++
		}
	}
	for pair, n := range count {
		if n != blocks {
			t.Errorf("pair %v offered %d times, want %d", pair, n, blocks)
		}
	}
	if len(count) != pairs || misses*2 != len(a) {
		t.Errorf("%d pairs, %d misses of %d arrivals", len(count), misses, len(a))
	}
	if !reflect.DeepEqual(newRand(3, "job-order").Perm(96), newRand(3, "job-order").Perm(96)) {
		t.Error("same seed gave different job orders")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "workload", Start: 0, End: 100, Parent: -1},
		{Name: "job", Start: 0, End: 90, Parent: 0},
		{Name: "core.Compile", Start: 10, End: 30, Parent: 1},
		{Name: "Program.Run", Start: 20, End: 50, Parent: 1},
		{Name: "Program.Run", Start: 60, End: 70, Parent: 1},
	}
	self := selfTimes(spans)
	if self["job"] != 90-50 || self["workload"] != 10 || self["Program.Run"] != 40 {
		t.Errorf("self times %v", self)
	}
	if c := coverage(spans, 0); c != 0.5 {
		t.Errorf("coverage %v, want 0.5", c)
	}
	var nilRec *recorder
	if d := nilRec.time("x", -1, 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("untraced timing %v", d)
	}
	rec := newRecorder()
	root := rec.begin("workload", -1, 0)
	rec.time("child", root, 1, func() {})
	rec.end(root)
	got, _ := rec.snapshot()
	if len(got) != 2 || got[1].Parent != 0 || got[1].Req != 1 || got[0].End < got[1].End {
		t.Errorf("recorded spans %+v", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogues and
// the workload list in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range doc.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", wl, have)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.E2E, e2eMetrics}, {"per_layer", doc.Layer, layerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
