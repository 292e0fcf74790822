package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own making: a call into
// a layer of the system, or a job or phase of the workload that
// contains such calls.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's origin
	Parent     int           // index of the enclosing span, -1 at the root
	Req        int64         // job or request the span belongs to, 0 for none
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing (the untraced run); its methods still time the work,
// so the same code measures both runs.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	cost  time.Duration // host time spent inside the recorder itself
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its handle: its index, or -1 when
// recording is off.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	t0 := time.Now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: t0.Sub(r.origin), End: -1, Parent: parent, Req: req})
	r.cost += time.Since(t0)
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t0 := time.Now()
	r.mu.Lock()
	r.spans[id].End = t0.Sub(r.origin)
	r.cost += time.Since(t0)
	r.mu.Unlock()
}

// time runs fn inside a span and returns fn's duration, which is
// measured whether or not the recorder is on.
func (r *recorder) time(name string, parent int, req int64, fn func()) time.Duration {
	id := r.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// snapshot returns a copy of the closed spans and the recorder's own cost.
func (r *recorder) snapshot() ([]span, time.Duration) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.spans))
	copy(out, r.spans)
	return out, r.cost
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by ivs, counting overlaps
// once. ivs is sorted in place.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if open && iv.lo <= cur.hi {
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
			continue
		}
		if open {
			total += cur.hi - cur.lo
		}
		cur, open = iv, true
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		for k := range kids {
			kids[k].lo = max(kids[k].lo, s.Start)
			kids[k].hi = min(kids[k].hi, s.End)
		}
		out[s.Name] += (s.End - s.Start) - unionLen(kids)
	}
	return out
}

// coverage returns the share of the root span's interval that leaf
// spans (spans with no children: the calls into the system's layers and
// the load generator's waits) cover.
func coverage(spans []span, root int) float64 {
	if root < 0 || root >= len(spans) || spans[root].End <= spans[root].Start {
		return 0
	}
	hasKids := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		}
	}
	r := spans[root]
	var leaves []interval
	for i, s := range spans {
		if i == root || hasKids[i] || s.End < 0 {
			continue
		}
		leaves = append(leaves, interval{max(s.Start, r.Start), min(s.End, r.End)})
	}
	return float64(unionLen(leaves)) / float64(r.End-r.Start)
}
