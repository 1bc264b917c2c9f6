package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory; they are written out once the run
// ends. Spans are recorded only by the benchmark's own code, around its
// calls into the program's layers. A nil *tracer is the untraced mode:
// every method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Parent is 0 for a root span; spans of
// one request or tuning case share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(name string, id, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record reserves an id and records a finished span in one call.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	id := t.id()
	t.add(name, id, parent, req, start, end)
	return id
}

// finish computes every span's self time — its duration minus the part
// of its interval covered by its children — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ivs := make([][2]int64, 0, len(children[s.ID]))
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		s.Self = (s.End - s.Start) - covered(ivs)
	}
	return t.spans
}

// covered returns the length of the union of the intervals; concurrent
// children (the gather pool's parallel measurements) overlap.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName groups the finished spans' self times (ns) by span name.
func selfByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Self))
	}
	return out
}

// printSelfTimes writes one line per span name: count, median self time
// and total self time.
func printSelfTimes(spans []span) {
	by := selfByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := by[n]
		var total float64
		for _, x := range xs {
			total += x
		}
		fmt.Printf("span %-28s n=%-7d self_p50=%.3fus self_total=%.3fms\n",
			n, len(xs), median(xs)/1e3, total/1e6)
	}
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
