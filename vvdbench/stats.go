package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, so the ladder steps down.
const minBeyond = 10

// tailLadder lists the tail percentiles a latency may be reported at,
// highest first. e2e.latency_p99_ms stops at p99 so its name never lies.
var tailLadder = []float64{99, 95, 90, 50}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// supportedPercentile returns the highest percentile of ladder that leaves
// at least minBeyond of n samples above its rank (ok=false if none does).
func supportedPercentile(n int, ladder []float64) (p float64, ok bool) {
	for _, p := range ladder {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tail summarizes a latency sample: median, the highest supported tail
// percentile and the sample count. Failed operations enter as +Inf.
type tail struct {
	N        int
	P50      float64
	TailP    float64 // percentile TailV was read at
	TailV    float64
	Supports bool // false: too few samples for any tail percentile
}

func summarize(samples []float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: len(s), P50: percentile(s, 50)}
	t.TailP, t.Supports = supportedPercentile(len(s), tailLadder)
	if t.Supports {
		t.TailV = percentile(s, t.TailP)
	} else {
		t.TailV = math.NaN()
	}
	return t
}

// bestShare is the share of windows a serving figure is read in (see
// best).
const bestShare = 0.25

// best picks the windows a figure is read in: the given share of them
// (rounded up) whose own figure (per-window median latency, or negated
// rate) is lowest, ties going to the earlier window. On a small shared
// host other tenants come and go over seconds; they take CPU time
// (steal) and slow the shared cores without taking any, and either only
// adds latency and removes capacity. The best windows show the system's
// own figure; a change that slows every window still moves it. A failed
// request fails the run, so no window is dropped for failing.
func best(figures []float64, share float64) []bool {
	order := make([]int, len(figures))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return figures[order[i]] < figures[order[j]] })
	keep := make([]bool, len(figures))
	for _, w := range order[:int(math.Ceil(share*float64(len(figures))))] {
		keep[w] = true
	}
	return keep
}

// fastest is the median of the given share of xs that is lowest (see best).
func fastest(xs []float64, share float64) float64 {
	var kept []float64
	for i, keep := range best(xs, share) {
		if keep {
			kept = append(kept, xs[i])
		}
	}
	return median(kept)
}

// pooled summarizes the samples whose window (key) is kept.
func pooled(samples []float64, key []int, keep []bool) tail {
	var in []float64
	for i, v := range samples {
		if k := key[i]; k >= 0 && k < len(keep) && keep[k] {
			in = append(in, v)
		}
	}
	return summarize(in)
}

// byWindow is the p-th percentile of each window's samples, in window
// order; a window without samples reads +Inf, so that best never keeps it.
func byWindow(samples []float64, key []int, windows int, p float64) []float64 {
	groups := make([][]float64, windows)
	for i, v := range samples {
		groups[key[i]] = append(groups[key[i]], v)
	}
	out := make([]float64, windows)
	for w, g := range groups {
		sort.Float64s(g)
		out[w] = math.Inf(1)
		if len(g) > 0 {
			out[w] = percentile(g, p)
		}
	}
	return out
}

// deciles are the 0th, 10th, …, 100th nearest-rank percentiles of xs, a
// short print of a long list of per-window figures.
func deciles(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, 0, 11)
	for p := 0.0; p <= 100; p += 10 {
		out = append(out, percentile(s, p))
	}
	return out
}

// scaled returns k·x for each x; k = -1 makes best keep the highest.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

// median of a small sample (not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open span of time in nanoseconds since run start.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other and stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// arrival is one scheduled open-loop request.
type arrival struct {
	Due   time.Duration // offset from the phase start
	Link  int
	Seq   int // per-link request counter
	Frame int // index of the frame the request carries
}

// poissonSchedule draws each of links independent Poisson processes at
// rate per second over d, merged in due order. It is a pure function of
// its arguments: the seed picks every inter-arrival gap and frame.
func poissonSchedule(seed uint64, links int, rate float64, d time.Duration, frames int) []arrival {
	var out []arrival
	for l := 0; l < links; l++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed0000+uint64(l)))
		var t float64
		for k := 0; ; k++ {
			t += rng.ExpFloat64() / rate
			due := time.Duration(t * float64(time.Second))
			if due >= d {
				break
			}
			out = append(out, arrival{Due: due, Link: l, Seq: k, Frame: rng.IntN(frames)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Due != out[j].Due {
			return out[i].Due < out[j].Due
		}
		return out[i].Link < out[j].Link
	})
	return out
}
