package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/serve"
	"vvd/internal/wire"
)

// span is one timed call at a layer boundary. Parent is the index of the
// causing span (-1 for a root); ReqID is shared by every span of one
// request: the link id plus the link's request counter.
type span struct {
	Name      string `json:"name"`
	ReqID     string `json:"req,omitempty"`
	Parent    int    `json:"parent"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Link      string `json:"link,omitempty"`
	Frame     int    `json:"frame"`                  // frame index carried, -1 for none
	Inference int64  `json:"inference_ns,omitempty"` // the reply's batch inference time
	Batch     int    `json:"batch,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Spans are kept only
// while it is on, so set-up and warm-up traffic stays out of the trace.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder(t0 time.Time) *recorder {
	r := &recorder{t0: t0, spans: make([]span, 0, 1<<16)}
	r.on.Store(true)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
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

// frameIndex identifies which of the workload's frames an image is, by a
// hash of its pixels, so a handler span can be matched to the client
// request that carried the same frame. Identical frames (the walker out of
// view) share the lowest index.
type frameIndex struct {
	byHash map[uint64]int
	canon  []int // canon[i] is the index frame i is known by
}

func pixelHash(img []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range img {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func newFrameIndex(frames [][]float32) *frameIndex {
	fi := &frameIndex{byHash: map[uint64]int{}, canon: make([]int, len(frames))}
	for i, f := range frames {
		h := pixelHash(f)
		if j, ok := fi.byHash[h]; ok {
			fi.canon[i] = j
			continue
		}
		fi.byHash[h] = i
		fi.canon[i] = i
	}
	return fi
}

func (fi *frameIndex) of(img []float32) int {
	if i, ok := fi.byHash[pixelHash(img)]; ok {
		return i
	}
	return -1
}

// timingHandler is a wire.Handler that records a span around each Submit
// and Fetch of the handler it wraps.
type timingHandler struct {
	inner  wire.Handler
	name   string
	rec    *recorder
	frames *frameIndex
}

func (h *timingHandler) Submit(link string, img []float32, wait time.Duration, reply *wire.EstimateReply) error {
	s := span{Name: h.name + ".submit", Parent: -1, Link: link, Frame: h.frames.of(img), Start: h.rec.now()}
	err := h.inner.Submit(link, img, wait, reply)
	s.End = h.rec.now()
	s.Inference = int64(reply.Inference)
	h.rec.add(s)
	return err
}

func (h *timingHandler) Fetch(link string, reply *wire.EstimateReply) error {
	s := span{Name: h.name + ".fetch", Parent: -1, Link: link, Frame: -1, Start: h.rec.now()}
	err := h.inner.Fetch(link, reply)
	s.End = h.rec.now()
	h.rec.add(s)
	return err
}

func (h *timingHandler) Stats(link string) ([]wire.LinkStats, error) { return h.inner.Stats(link) }
func (h *timingHandler) Metrics() (wire.MetricsReply, error)         { return h.inner.Metrics() }
func (h *timingHandler) Ping() (wire.PongReply, error)               { return h.inner.Ping() }

// timingEstimator records an "estimator.batch" span around each batched
// inference.
type timingEstimator struct {
	inner serve.BatchEstimator
	rec   *recorder
}

func (e *timingEstimator) EstimateBatch(imgs [][]float32) ([][]complex128, error) {
	s := span{Name: "estimator.batch", Parent: -1, Frame: -1, Batch: len(imgs), Start: e.rec.now()}
	out, err := e.inner.EstimateBatch(imgs)
	s.End = e.rec.now()
	e.rec.add(s)
	return out, err
}

// spanKey groups spans that may belong to one request.
type spanKey struct {
	link  string
	frame int
}

// linkChildren sets Parent and ReqID of every span named child to the
// span named parent of the same link and frame that contains it in time
// (the latest-starting one if several do). It returns how many child
// spans found no containing parent: a nesting violation, since a handler
// runs only while its caller waits.
func linkChildren(spans []span, parent, child string) (unmatched int) {
	byKey := map[spanKey][]int{}
	for i, s := range spans {
		if s.Name == parent {
			k := spanKey{s.Link, s.Frame}
			byKey[k] = append(byKey[k], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child {
			continue
		}
		cands := byKey[spanKey{c.Link, c.Frame}]
		best := -1
		for _, p := range cands {
			ps := spans[p]
			if ps.Start > c.Start {
				break
			}
			if ps.End >= c.End {
				best = p
			}
		}
		if best < 0 {
			unmatched++
			continue
		}
		c.Parent = best
		c.ReqID = spans[best].ReqID
	}
	return unmatched
}

// childrenOf indexes, for each span, the spans whose Parent it is.
func childrenOf(spans []span) map[int][]int {
	out := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// selfTimes returns, for every span named name that has children, its self
// time in milliseconds.
func selfTimes(spans []span, kids map[int][]int, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name != name || len(kids[i]) == 0 {
			continue
		}
		cs := make([]interval, len(kids[i]))
		for j, k := range kids[i] {
			cs[j] = spans[k].interval()
		}
		out = append(out, float64(selfTime(s.interval(), cs))/1e6)
	}
	return out
}

// durations returns the durations of spans named name, in milliseconds,
// optionally minus each span's reply inference time.
func durations(spans []span, name string, minusInference bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if minusInference {
			d -= s.Inference
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

func reqID(link string, k int) string { return fmt.Sprintf("%s#%d", link, k) }
