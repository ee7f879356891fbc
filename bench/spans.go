package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around its own calls
// into the program: what ran, when, under which parent, for which request.
// Spans stay in memory during the run and are written out at exit.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	req        int64 // request id shared by the spans of one request
}

// recorder collects the spans of one driver goroutine; each goroutine owns
// its own, so recording takes no lock. A nil recorder records nothing.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), parent: parent, req: req})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// add records a span whose interval the caller measured itself (time a
// wrapped connection spent blocked in Read, for instance).
func (r *recorder) add(name string, parent int32, req int64, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.epoch))
	r.spans = append(r.spans, span{name: name, start: s, end: s + int64(d), parent: parent, req: req})
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, over all recorders. Children of one parent never
// overlap here (one goroutine records them in sequence), so the covered
// part is the sum of the children's durations.
func selfTimes(recs []*recorder) map[string]int64 {
	self := map[string]int64{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		covered := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			self[s.name] += s.end - s.start - covered[i]
		}
	}
	return self
}

// maxSpansWritten caps the span file; the per-op numbers use every span.
const maxSpansWritten = 200000

// writeSpans writes the recorders' spans as JSON lines, one file per run.
func writeSpans(dir, workload string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	written, total := 0, 0
	for g, r := range recs {
		if r == nil {
			continue
		}
		total += len(r.spans)
		for i, s := range r.spans {
			if written >= maxSpansWritten {
				break
			}
			fmt.Fprintf(w, `{"driver":%d,"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				g, i, s.parent, s.req, s.name, s.start, s.end)
			written++
		}
	}
	if total > written {
		fmt.Fprintf(w, `{"truncated_spans":%d}`+"\n", total-written)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
