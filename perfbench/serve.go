package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"cgcm/internal/bench"
	"cgcm/internal/core"
	"cgcm/internal/machine"
	"cgcm/internal/server"
)

// Traffic of the serve-mixed workload.
const (
	// faultPlan is the repository's standard injected-fault plan.
	faultPlan = "seed=7,htod=0.2,dtoh=0.2,alloc=0.1"
	// quotaBytes is the quota tenant's device-memory quota: small enough
	// that the tenant's concurrent requests contend for it.
	quotaBytes = 262144
	// lowRate and highRate are the two fixed open-loop rates (requests
	// per second): about 35% and 75% of what the server sustains on a
	// 2-core host (its bursts drain at 21-26 requests per second). They
	// are fixed so that runs of different commits offer identical load;
	// highRate is also step 0 of the overload ladder.
	lowRate  = 8.0
	highRate = 17.0
	// latencyLimit is the p95 latency a ladder step must meet.
	latencyLimit = 500 * time.Millisecond
	// ladderFactor spaces the overload ladder's rates.
	ladderFactor = 1.05
	// maxProbes bounds the ladder search.
	maxProbes = 3
	// maxBursts bounds how many bursts a run can submit; a 30-second
	// run submits 6 to 10.
	maxBursts = 64
	// queueCapacity sizes the admission queue so the fixed rates never
	// shed; past capacity, latency crosses the limit first and shedding
	// follows.
	queueCapacity = 64
	// scrapeEvery is the /metrics scrape period.
	scrapeEvery = time.Second
)

// tenant is one traffic source of serve-mixed.
type tenant struct {
	name   string
	weight int
	opts   server.RunOptions
	quota  int64
}

var tenants = []tenant{
	{name: "plain", weight: 2},
	{name: "faulty", weight: 1, opts: server.RunOptions{Faults: faultPlan}},
	{name: "quota", weight: 1, quota: quotaBytes},
}

// arrival is one scheduled request.
type arrival struct {
	due     time.Duration // offset from the phase start
	id      int64         // unique within the run
	tenant  int
	program int  // index into servePrograms
	miss    bool // carries a unique source variant: a compile-cache miss
}

// schedule generates one phase's open-loop arrivals: blocks × (tenant,
// program) pairs at Poisson times of the given rate, drawn as a Poisson
// process conditioned on its count (sorted uniform times over
// count/rate seconds), so every phase of a given rate lasts the same.
// Each block covers every pair once in seeded order, and each pair
// alternates between its canonical source and a unique variant (half
// the pairs start with the variant), so every seed offers the same mix,
// half of it cache misses.
func schedule(seed int64, phase string, rate float64, blocks int, firstID int64) []arrival {
	times := newRand(seed, phase+"/arrivals")
	mix := newRand(seed, phase+"/mix")
	pairs := len(tenants) * len(servePrograms)
	n := blocks * pairs
	due := make([]float64, n)
	for i := range due {
		due[i] = times.Float64() * float64(n) / rate
	}
	sort.Float64s(due)
	startMiss := mix.Perm(pairs)
	seen := make([]int, pairs)
	out := make([]arrival, 0, n)
	for b := 0; b < blocks; b++ {
		for _, pair := range mix.Perm(pairs) {
			miss := (seen[pair]%2 == 0) == (startMiss[pair] < pairs/2)
			seen[pair]++
			out = append(out, arrival{
				due: time.Duration(due[len(out)] * float64(time.Second)), id: firstID + int64(len(out)),
				tenant: pair / len(servePrograms), program: pair % len(servePrograms), miss: miss,
			})
		}
	}
	return out
}

// blocksFor returns how many schedule blocks fill about d at rate.
func blocksFor(d time.Duration, rate float64) int {
	pairs := float64(len(tenants) * len(servePrograms))
	return max(1, int(math.Round(d.Seconds()*rate/pairs)))
}

// outcome is what happened to one arrival.
type outcome struct {
	a          arrival
	sent, done time.Duration // offsets from the phase start
	decode     time.Duration
	status     int
	body       []byte
	resp       *server.RunResponse // decoded 200 body
}

func (o *outcome) latency() time.Duration { return o.done - o.a.due }

// service is the request's time in the handler minus its queue wait.
func (o *outcome) service() time.Duration {
	return o.done - o.sent - o.decode - time.Duration(o.resp.QueueNS)
}

type serveState struct {
	gold    goldens
	srv     *server.Server
	handler http.Handler
	sources map[string]string
	nextID  int64
}

func setupServe(cfg *config) (state, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	s := &serveState{gold: g, sources: make(map[string]string)}
	for _, name := range servePrograms {
		p, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no suite program %q", name)
		}
		s.sources[name] = p.Source
	}
	weights, quotas := map[string]int{}, map[string]int64{}
	for _, t := range tenants {
		weights[t.name] = t.weight
		if t.quota > 0 {
			quotas[t.name] = t.quota
		}
	}
	s.srv, err = server.New(server.Config{
		Workers: cfg.workers, QueueCapacity: queueCapacity, Weights: weights, TenantQuotas: quotas,
	})
	if err != nil {
		return nil, err
	}
	s.handler = s.srv.Handler()
	// One warm-up request pays for lazily initialized paths in set-up.
	warm := []outcome{{a: arrival{program: 1}}}
	s.send(&config{}, &warm[0], s.body(warm[0].a, 0), -1, time.Now())
	decodeAll(warm)
	if err := s.check(&warm[0], nil, false); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every request has completed; nothing is left to cancel
}

// body renders an arrival's POST /run body.
func (s *serveState) body(a arrival, seed int64) []byte {
	name := servePrograms[a.program]
	src := s.sources[name]
	if a.miss {
		src += fmt.Sprintf("\n// variant %d-%d\n", seed, a.id)
	}
	t := tenants[a.tenant]
	b, _ := json.Marshal(server.RunRequest{Tenant: t.name, Program: name, Source: src, Options: t.opts})
	return b
}

// send posts one request through the in-process handler.
func (s *serveState) send(cfg *config, o *outcome, body []byte, parent int, start time.Time) {
	rec := cfg.rec
	id := rec.begin("request", parent, o.a.id)
	defer rec.end(id)
	o.sent = time.Since(start)
	var derr *server.Error
	o.decode = rec.time("server.DecodeRequest", id, o.a.id, func() { _, derr = server.DecodeRequest(body, 0) })
	if derr != nil {
		o.status, o.body = derr.HTTPStatus(), []byte(derr.Error())
		o.done = time.Since(start)
		return
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	rec.time("server.Handler", id, o.a.id, func() { s.handler.ServeHTTP(w, r) })
	o.done = time.Since(start)
	o.status, o.body = w.Code, w.Body.Bytes()
}

// decodeAll decodes the 200 bodies of outs. It runs after the timed
// phase, so the load generator's own allocations stay out of it.
func decodeAll(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.status != http.StatusOK {
			continue
		}
		var resp server.RunResponse
		if json.Unmarshal(o.body, &resp) == nil {
			o.resp = &resp
		}
	}
}

// check validates one outcome: HTTP 200, output equal to the golden,
// and (given refs, unless the request shared its tenant's quota) a
// payload bit-identical to a solo run of the same request.
func (s *serveState) check(o *outcome, refs map[string][]byte, shared bool) error {
	pair := pairKey(o.a)
	if o.status != http.StatusOK {
		return fmt.Errorf("request %d %s: HTTP %d: %s", o.a.id, pair, o.status, bytes.TrimSpace(o.body))
	}
	if o.resp == nil {
		return fmt.Errorf("request %d %s: undecodable 200 body", o.a.id, pair)
	}
	if err := s.gold.check(servePrograms[o.a.program], o.resp.Output); err != nil {
		return fmt.Errorf("request %d: %w", o.a.id, err)
	}
	if refs == nil || shared {
		return nil
	}
	got, err := o.resp.Payload()
	if err != nil {
		return fmt.Errorf("request %d %s: payload: %w", o.a.id, pair, err)
	}
	if !bytes.Equal(got, refs[pair]) {
		return fmt.Errorf("request %d %s: payload differs from a solo run", o.a.id, pair)
	}
	return nil
}

func pairKey(a arrival) string { return tenants[a.tenant].name + "/" + servePrograms[a.program] }

// soloRefs runs each (tenant, program) pair once, alone, through the
// public compile+run API with the options the server would derive, and
// returns the expected response payloads.
func (s *serveState) soloRefs(outs []outcome) (map[string][]byte, error) {
	refs := make(map[string][]byte)
	for _, o := range outs {
		pair := pairKey(o.a)
		if _, ok := refs[pair]; ok {
			continue
		}
		canon := o.a
		canon.miss = false
		req, derr := server.DecodeRequest(s.body(canon, 0), 0)
		if derr != nil {
			return nil, fmt.Errorf("solo %s: %v", pair, derr)
		}
		prog, err := core.Compile(req.Program, req.Source, req.CoreOptions())
		if err != nil {
			return nil, fmt.Errorf("solo %s: %w", pair, err)
		}
		var rc core.RunConfig
		if t := tenants[o.a.tenant]; t.quota > 0 {
			pool := machine.NewQuotaPool(0)
			pool.SetQuota(t.name, t.quota)
			rc.MemGovernor = pool.Governor(t.name)
		}
		rep, err := prog.RunWith(rc)
		if err != nil {
			return nil, fmt.Errorf("solo %s: %w", pair, err)
		}
		resp := server.RunResponse{
			OutputSHA256: sha256Hex(rep.Output), Exit: rep.Exit,
			Stats: rep.Stats, RTStats: rep.RTStats, Comm: rep.Comm,
		}
		if refs[pair], err = resp.Payload(); err != nil {
			return nil, fmt.Errorf("solo %s: %w", pair, err)
		}
	}
	return refs, nil
}

// phase offers one open-loop schedule to the server: each request is
// sent at its due time from its own goroutine, whatever the server's
// state. It returns once every request has completed.
func (s *serveState) phase(cfg *config, name string, arr []arrival, parent int) []outcome {
	rec := cfg.rec
	bodies := make([][]byte, len(arr))
	for i, a := range arr {
		bodies[i] = s.body(a, cfg.seed)
	}
	outs := make([]outcome, len(arr))
	// Start every phase from a collected heap, so one phase's garbage
	// is not charged to the next.
	runtime.GC()
	pid := rec.begin("phase."+name, parent, 0)
	defer rec.end(pid)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range arr {
		outs[i].a = arr[i]
		if d := arr[i].due - time.Since(start); d > 0 {
			rec.time("loadgen.wait", pid, 0, func() { time.Sleep(d) })
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.send(cfg, &outs[i], bodies[i], pid, start)
		}(i)
	}
	wg.Wait()
	return outs
}

// fixedPhase offers a seeded schedule of blocks at rate.
func (s *serveState) fixedPhase(cfg *config, name string, rate float64, blocks int, parent int) []outcome {
	arr := schedule(cfg.seed, name, rate, blocks, s.nextID)
	s.nextID += int64(len(arr))
	return s.phase(cfg, name, arr, parent)
}

// latencies returns each outcome's latency from its due time in ms. A
// refused or failed request counts as missing the latency limit.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i := range outs {
		o := &outs[i]
		out[i] = ms(o.latency())
		if o.status != http.StatusOK {
			out[i] = math.Max(out[i], 2*ms(latencyLimit))
		}
	}
	return out
}

// scraper GETs /metrics once per scrapeEvery until stopped.
type scraper struct {
	stop  chan struct{}
	done  chan struct{}
	times []float64 // ms
	errs  []error
}

func (s *serveState) startScraper(cfg *config, parent int) *scraper {
	sc := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-tick.C:
			}
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			d := cfg.rec.time("metrics.scrape", parent, 0, func() { s.handler.ServeHTTP(w, r) })
			sc.times = append(sc.times, ms(d))
			var err error
			if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte("cgcmd_")) {
				err = fmt.Errorf("GET /metrics: HTTP %d, %d bytes", w.Code, w.Body.Len())
			}
			sc.errs = append(sc.errs, err)
		}
	}()
	return sc
}

// finish stops the scraper and waits for it to exit.
func (sc *scraper) finish() {
	close(sc.stop)
	<-sc.done
}

// keptUp reports whether a ladder step's outcomes meet the limit:
// every request answered 200, at most 5% took longer than latencyLimit
// from their due time, and the backlog drained within latencyLimit of
// the last arrival.
func keptUp(outs []outcome) bool {
	slow := 0
	var lastDue, lastDone time.Duration
	for i, l := range latencies(outs) {
		if l > ms(latencyLimit) {
			slow++
		}
		lastDue, lastDone = max(lastDue, outs[i].a.due), max(lastDone, outs[i].done)
	}
	return len(outs) > 0 && slow*20 <= len(outs) && lastDone-lastDue <= latencyLimit
}

// ladderRate is the k-th step of the fixed overload ladder.
func ladderRate(k int) float64 { return highRate * math.Pow(ladderFactor, float64(k)) }

// searchLadder walks the ladder from step k — up while steps keep up,
// down while they do not — until it has seen a step that keeps up next
// to one above it that does not, or has made maxProbes probes. It
// returns the highest step seen to keep up.
func searchLadder(k int, probe func(k int) bool) (best int, ok bool) {
	passed := map[int]bool{}
	for n := 0; n < maxProbes; n++ {
		up := probe(k)
		passed[k] = up
		if up {
			if !ok || k > best {
				best, ok = k, true
			}
			if p, seen := passed[k+1]; seen && !p {
				break
			}
			k++
		} else {
			if p, seen := passed[k-1]; seen && p {
				break
			}
			k--
		}
	}
	return best, ok
}

// ladder finds serve.max_rps: the highest ladder step whose probe keeps
// up. The search starts at the step at or below 85% of the burst
// capacity (a Poisson stream keeps up to somewhat below the rate a
// saturated burst drains at), never below step 0, which the high
// fixed-rate phase has already probed. Probes last two blocks: a step a
// little over capacity needs that long for its backlog to show.
func (s *serveState) ladder(cfg *config, capacity float64, high []outcome, parent int, res *result) (float64, []outcome) {
	var all []outcome
	start := max(0, int(math.Floor(math.Log(0.85*capacity/highRate)/math.Log(ladderFactor))))
	best, ok := searchLadder(start, func(k int) bool {
		if k == 0 {
			return keptUp(high)
		}
		outs := s.fixedPhase(cfg, fmt.Sprintf("ladder%+d", k), ladderRate(k), 2, parent)
		all = append(all, outs...)
		up := keptUp(outs)
		res.note("ladder step %+d rate=%.2f/s requests=%d kept_up=%v", k, ladderRate(k), len(outs), up)
		return up
	})
	if !ok {
		return 0, all
	}
	return ladderRate(best), all
}

// burster holds the burst schedule: maxBursts blocks, of which a run
// submits as many as its budget allows, in order.
type burster struct {
	arr   []arrival
	block int
	outs  [][]outcome // one entry per submitted burst
}

func (s *serveState) newBurster(cfg *config) *burster {
	arr := schedule(cfg.seed, "burst", 1, maxBursts, s.nextID)
	s.nextID += int64(len(arr))
	return &burster{arr: arr, block: len(arr) / maxBursts}
}

// burst submits the next schedule block — every (tenant, program) pair,
// half of them as cache-missing variants — all due at once: one sweep
// of the matrix through a saturated server. Each pair alternates
// between canonical and variant across the bursts.
func (s *serveState) burst(cfg *config, b *burster, parent int) {
	r := len(b.outs)
	blk := b.arr[r*b.block : (r+1)*b.block]
	for i := range blk {
		blk[i].due = 0
	}
	b.outs = append(b.outs, s.phase(cfg, fmt.Sprintf("burst%d", r), blk, parent))
}

// drains returns each burst's drain time in seconds.
func (b *burster) drains() []float64 {
	var d []float64
	for _, outs := range b.outs {
		d = append(d, lastDone(outs).Seconds())
	}
	return d
}

// lastDone is when the last of outs completed.
func lastDone(outs []outcome) time.Duration {
	var d time.Duration
	for i := range outs {
		d = max(d, outs[i].done)
	}
	return d
}

// quotaShared marks the quota tenant's requests that were in the
// handler while another of that tenant's requests was: they shared the
// tenant's device-memory quota, so their eviction and degrade
// statistics legitimately differ from a solo run (their output may not).
func quotaShared(outs []outcome) []bool {
	shared := make([]bool, len(outs))
	for i := range outs {
		for j := range outs {
			a, b := &outs[i], &outs[j]
			if i != j && tenants[a.a.tenant].quota > 0 && a.a.tenant == b.a.tenant && a.sent < b.done && b.sent < a.done {
				shared[i] = true
				break
			}
		}
	}
	return shared
}

// run executes the timed phase with a /metrics scrape every second:
// two bursts, the low fixed rate, a burst, the high fixed rate, a
// burst, the overload ladder, then bursts until the budget is spent
// (at least one). The bursts, which give the end-to-end metrics, are
// spread over the whole phase rather than bunched at its start: with
// two requests sharing a 2-core host, the CPU time one block takes
// varies by about 10% (one standard deviation) from burst to burst, so
// more bursts, spread out, sample the run better.
func (s *serveState) run(cfg *config, res *result) error {
	rec := cfg.rec
	root := rec.begin("workload", -1, 0)
	t0 := time.Now()
	sc := s.startScraper(cfg, root)
	bs := s.newBurster(cfg)
	s.burst(cfg, bs, root)
	s.burst(cfg, bs, root)
	low := s.fixedPhase(cfg, "low", lowRate, blocksFor(cfg.budget/5, lowRate), root)
	s.burst(cfg, bs, root)
	high := s.fixedPhase(cfg, "high", highRate, blocksFor(cfg.budget/10, highRate), root)
	s.burst(cfg, bs, root)
	hits, misses, dedups := s.srv.CacheCounters()
	block := float64(len(tenants) * len(servePrograms))
	// The ladder's length depends on where its search stops, so memory
	// is sampled up to its start.
	res.rss.freeze()
	maxRPS, ladder := s.ladder(cfg, block/median(bs.drains()), high, root, res)
	for {
		s.burst(cfg, bs, root)
		if len(bs.outs) == maxBursts || time.Since(t0) >= cfg.budget {
			break
		}
	}
	sc.finish()
	res.timedWall = time.Since(t0)
	rec.end(root)
	bursts := len(bs.outs)
	drains := bs.drains()
	capacity := block / median(drains)
	checked := append(append([][]outcome(nil), bs.outs...), low, high)

	var all []outcome
	for _, outs := range checked {
		decodeAll(outs)
		all = append(all, outs...)
	}
	refs, err := s.soloRefs(all)
	if err != nil {
		return err
	}
	for _, outs := range checked {
		shared := quotaShared(outs)
		for i := range outs {
			res.op(s.check(&outs[i], refs, shared[i]))
		}
	}
	for _, err := range sc.errs {
		res.op(err)
	}
	shed := 0
	for _, o := range append(all, ladder...) {
		if o.status == http.StatusTooManyRequests {
			shed++
		}
	}
	fixed := append(append([]outcome(nil), low...), high...)
	var svc []float64
	for i := range fixed {
		if fixed[i].resp != nil {
			svc = append(svc, ms(fixed[i].service()))
		}
	}

	// A burst cell is one (tenant, program, variant) combination; op_*
	// are percentiles over the cells' median service times.
	cells := newAgg()
	for _, outs := range checked[:bursts] {
		for i := range outs {
			if o := &outs[i]; o.resp != nil {
				cells.add("service", fmt.Sprintf("%s/%v", pairKey(o.a), o.a.miss), ms(o.service()))
			}
		}
	}
	burstSvc := cells.medians("service")
	lowLat, highLat := latencies(low), latencies(high)
	svcP90, q90, err := tailQuantile(burstSvc, 0.90)
	if err != nil {
		return fmt.Errorf("service time: %w", err)
	}
	agg := newAgg()
	for i := range all {
		if o := &all[i]; o.resp != nil {
			agg.add(map[bool]string{false: "service.hit", true: "service.miss"}[o.a.miss], servePrograms[o.a.program], ms(o.service()))
		}
	}
	for i := range fixed {
		if o := &fixed[i]; o.resp != nil {
			addCounters(agg, pairKey(o.a), o.resp.Stats, o.resp.RTStats)
		}
	}
	res.e2e["sweep_s"] = median(drains)
	res.e2e["op_p50_ms"] = median(burstSvc)
	res.e2e["op_p90_ms"] = svcP90
	res.e2e["ops_per_s"] = capacity
	res.note("requests burst=%d low=%d high=%d ladder=%d scrapes=%d burst_capacity=%.2f/s max_rps=%.2f op_p90_ms is quantile %.4f of %d",
		bursts*len(tenants)*len(servePrograms), len(low), len(high), len(ladder), len(sc.times), capacity, maxRPS, q90, len(burstSvc))

	var late, decode, queue []float64
	for i := range fixed {
		o := &fixed[i]
		late = append(late, ms(o.sent-o.a.due))
		decode = append(decode, float64(o.decode)/float64(time.Microsecond))
	}
	for i := range high {
		if high[i].resp != nil {
			queue = append(queue, float64(high[i].resp.QueueNS)/1e6)
		}
	}
	lateP95, _, err := tailQuantile(late, 0.95)
	if err != nil {
		return err
	}
	res.note("burst drains s: %.3f", drains)
	res.note("loadgen lateness ms: p50=%.3f p95=%.3f max=%.3f", median(late), lateP95, quantile(late, 1))
	if cfg.rec == nil {
		return nil
	}

	L := res.layer
	L["server.decode_us"] = median(decode)
	L["server.queue_ms_p50"] = median(queue)
	if L["server.queue_ms_p95"], _, err = tailQuantile(queue, 0.95); err != nil {
		return fmt.Errorf("queue wait: %w", err)
	}
	L["server.service_ms_p50"] = median(svc)
	var extra []float64
	for _, name := range servePrograms {
		h, m := agg.samples["service.hit"][name], agg.samples["service.miss"][name]
		if len(h) > 0 && len(m) > 0 {
			extra = append(extra, median(m)-median(h))
		}
	}
	L["server.miss_extra_ms"] = median(extra)
	if hits+misses > 0 {
		L["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	L["server.cache_dedups"] = float64(dedups)
	L["server.shed"] = float64(shed)
	L["serve.max_rps"] = maxRPS
	L["metrics.scrape_ms"] = median(sc.times)
	L["loadgen.late_ms_p95"] = lateP95
	L["serve.low.lat_p50_ms"] = median(lowLat)
	L["serve.high.lat_p50_ms"] = median(highLat)
	if L["serve.low.lat_p95_ms"], _, err = tailQuantile(lowLat, 0.95); err != nil {
		return fmt.Errorf("low rate: %w", err)
	}
	if L["serve.high.lat_p95_ms"], _, err = tailQuantile(highLat, 0.95); err != nil {
		return fmt.Errorf("high rate: %w", err)
	}
	for _, name := range counterNames {
		L[name] = agg.sweep(name)
	}
	L["runtime.skip_ratio"] = skipRatio(L)
	spans, _ := rec.snapshot()
	L["trace.coverage_pct"] = 100 * coverage(spans, root)
	return nil
}
