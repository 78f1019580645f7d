package main

// Spans recorded from the benchmark's own files, around each call into a
// layer's public entry point. They are kept in memory and written out as
// JSONL when the run ends; a nil *recorder records nothing, which is how the
// untraced run is built.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Spans of one client update share Update (−1 for
// round-level spans); Parent is the ID of the enclosing span, 0 at the root.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Update  int    `json:"update"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open reserves an ID for a span whose children are recorded before it ends.
func (r *recorder) open() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// close records a span opened with open.
func (r *recorder) close(id int64, name string, parent int64, update int, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Update: update,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// leaf records a span without children.
func (r *recorder) leaf(name string, parent int64, update int, start, end time.Time) {
	r.close(r.open(), name, parent, update, start, end)
}

// durations returns the durations, in seconds, of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
