package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the enclosing span (-1 for a root) and Op
// groups the spans of one operation.
type span struct {
	Name   string
	Start  int64 // ns since the recorder was created
	End    int64
	Parent int
	Op     int
}

// recorder is the benchmark's own span store (deliberately not obs: spans
// inside the program are a later change). It keeps spans in memory and
// writes them out once, at exit. A nil recorder records nothing, which is
// how the untraced runs call the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-measured interval of length d starting at start,
// for depths that are timed on a separate, identically seeded database and so
// cannot physically nest inside their parent.
func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int, f func() error) (time.Duration, error) {
	id := r.begin(name, parent, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.end(id)
	return d, err
}

// write stores the spans as a JSON array of {name,start,end,parent,op_id}
// objects (times in ns since the run began).
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op_id\":%d}", s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
