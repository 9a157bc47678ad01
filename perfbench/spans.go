package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Spans of one workload form
// a tree through Parent; 0 is the root's parent.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Allocs float64 `json:"allocs,omitempty"`
	AllocM float64 `json:"alloc_mb,omitempty"`
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a completed span and returns its ID.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// open starts a span whose end is recorded by the returned func.
func (r *recorder) open(parent int, name string) (id int, end func()) {
	start := time.Now()
	id = r.add(parent, name, start, start)
	return id, func() {
		r.mu.Lock()
		r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
		r.mu.Unlock()
	}
}

// layer times one call into a layer as a child of parent, with the
// process-wide allocation deltas across it, and returns its seconds and
// deltas.
func (r *recorder) layer(parent int, name string, call func()) (secs, allocs, mb float64) {
	m := markAllocs()
	start := time.Now()
	call()
	end := time.Now()
	allocs, mb = m.since()
	id := r.add(parent, name, start, end)
	r.mu.Lock()
	r.spans[id-1].Allocs, r.spans[id-1].AllocM = allocs, mb
	r.mu.Unlock()
	return end.Sub(start).Seconds(), allocs, mb
}

// selfTimes returns each span name's summed duration and self time (its
// duration minus the part of it its children cover; concurrent children
// are counted once), in seconds.
func (r *recorder) selfTimes() map[string][2]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make([][]span, len(r.spans)+1)
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string][2]float64{}
	for _, s := range r.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		end := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		t := out[s.Name]
		t[0] += float64(s.End-s.Start) / 1e9
		t[1] += float64(s.End-s.Start-covered) / 1e9
		out[s.Name] = t
	}
	return out
}

// selfTable renders selfTimes, slowest self time first.
func (r *recorder) selfTable() string {
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %12.4f %12.4f\n", n, st[n][0], st[n][1])
	}
	return b.String()
}

// write stores the span tree and per-name self times as one JSON file.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type selfRow struct {
		Name   string  `json:"name"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	var rows []selfRow
	for n, t := range r.selfTimes() {
		rows = append(rows, selfRow{n, t[0], t[1]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	r.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Self     []selfRow `json:"self_time"`
		Spans    []span    `json:"spans"`
	}{workload, seed, rows, r.spans}, "", " ")
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
