package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSupportedPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 95, true},  // p99 would leave 9
		{200, 95, true},  // rank 190, 10 beyond
		{199, 90, true},  // p95 would leave 9
		{20, 50, true},   // rank 10, 10 beyond
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		p, ok := supportedPercentile(c.n, tailLadder)
		if p != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-rankOf(p, c.n))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.TailV != 990 {
		t.Errorf("summarize = %+v, want N 1000, p50 500, p99 990", s)
	}
	xs[0] = math.Inf(1) // a failed request
	if got := summarize(xs).TailV; got != 990 {
		t.Errorf("one failure of 1000: p99 = %v, want 990", got)
	}
}

func TestBestKeepsTheLowestQuarter(t *testing.T) {
	got := best([]float64{3, 0, 1, 0.5, 2}, bestShare)
	if want := []bool{false, true, false, true, false}; !reflect.DeepEqual(got, want) {
		t.Errorf("best = %v, want %v (a quarter of 5, rounded up)", got, want)
	}
	// Ties go to the earlier window.
	if got := best([]float64{0, 0, 0, 0}, bestShare); !reflect.DeepEqual(got, []bool{true, false, false, false}) {
		t.Errorf("best of equal figures = %v", got)
	}
	if got := best(scaled([]float64{10, 40, 30, 20}, -1), bestShare); !reflect.DeepEqual(got, []bool{false, true, false, false}) {
		t.Errorf("best of negated rates = %v, want the highest", got)
	}
	if got := best([]float64{5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11}, 0.1); !reflect.DeepEqual(got, []bool{false, false, false, true, true, false, false, false, false, false, false}) {
		t.Errorf("best tenth of 11 = %v, want the lowest 2", got)
	}
	if got := fastest([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, bestShare); got != 2 {
		t.Errorf("fastest quarter of 1..10 = %v, want the median of 1, 2, 3", got)
	}
}

// windowSamples gives each of len(fail) windows 1,000 samples 1..1000,
// of which the first fail[w] are failed requests (+Inf).
func windowSamples(fail []int) (xs []float64, key []int) {
	for w, f := range fail {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if i <= f {
				v = math.Inf(1)
			}
			xs = append(xs, v)
			key = append(key, w)
		}
	}
	return xs, key
}

func TestPooledReadsTheBestWindows(t *testing.T) {
	xs, key := windowSamples(make([]int, 8))
	for i := range xs {
		xs[i] *= 1 + float64(key[i]%4) // windows 0 and 4 are the fastest
	}
	got := pooled(xs, key, best(byWindow(xs, key, 8, 50), bestShare))
	if got.N != 2000 || got.P50 != 500 || got.TailP != 99 || got.TailV != 990 {
		t.Errorf("pooled = %+v, want p50 500, p99 990 over 2000", got)
	}
}

// Failed requests enter the figures as +Inf: once more than 1% of the kept
// windows' requests fail, p99 is +Inf. The windows that fail most rank
// last, though, so up to three quarters of the windows can fail and leave
// both figures finite: this is why any failed request fails the run
// (TestFailedRequestsFailTheRun).
func TestPooledFailures(t *testing.T) {
	fail := make([]int, 20)
	for w := range fail {
		fail[w] = 20 // 2% of every window fails
	}
	xs, key := windowSamples(fail)
	got := pooled(xs, key, best(byWindow(xs, key, 20, 50), bestShare))
	if got.P50 != 520 || !math.IsInf(got.TailV, 1) {
		t.Errorf("2%% failed everywhere: %+v, want p50 520 and p99 +Inf", got)
	}
	for w := range fail {
		fail[w] = 0
		if w%3 == 0 {
			fail[w] = 1000 // every request of 7 of 20 windows fails
		}
	}
	xs, key = windowSamples(fail)
	got = pooled(xs, key, best(byWindow(xs, key, 20, 50), bestShare))
	if got.P50 != 500 || got.TailV != 990 {
		t.Errorf("35%% of windows failed: %+v, want the clean windows' p50 500 and p99 990", got)
	}
}

func TestFailedRequestsFailTheRun(t *testing.T) {
	for _, mark := range []func(*outcome){
		func(o *outcome) { o.sheds.Add(1) },
		func(o *outcome) { o.notReady.Add(1) },
		func(o *outcome) { o.errs.Add(1) },
		func(o *outcome) { o.bad.Add(1) },
		func(o *outcome) { o.overflow.Add(1) },
	} {
		var open, closed outcome
		open.attempted.Add(10)
		mark(&open)
		r := &run{values: map[string]float64{}}
		checkServed(r, "test", &open, &closed)
		if len(r.checkFailures) != 1 || r.failed != 1 || r.attempted != 10 {
			t.Errorf("%s: check failures %q, %d of %d failed; want one check failure and 1 of 10", open.String(), r.checkFailures, r.failed, r.attempted)
		}
	}
	var open, closed outcome
	open.attempted.Add(10)
	r := &run{values: map[string]float64{}}
	checkServed(r, "test", &open, &closed)
	if len(r.checkFailures) != 0 {
		t.Errorf("no failures: check failures %q", r.checkFailures)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 5}, {200, 300}}
	// Covered inside the parent: [0,5] + [10,40] + [90,100] = 45.
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const d = 20 * time.Second
	a := poissonSchedule(7, 48, 30, d, 48)
	b := poissonSchedule(7, 48, 30, d, 48)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 48, 30, d, 48)) {
		t.Fatal("different seeds gave the same schedule")
	}
	want := 48 * 30 * d.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 0.03*want {
		t.Errorf("%v arrivals, want about %v", got, want)
	}
	perLink := map[int]int{}
	for i, x := range a {
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if x.Due < 0 || x.Due >= d || x.Frame < 0 || x.Frame >= 48 || x.Link < 0 || x.Link >= 48 {
			t.Fatalf("arrival out of range: %+v", x)
		}
		if x.Seq != perLink[x.Link] {
			t.Fatalf("link %d: request %d has counter %d", x.Link, perLink[x.Link], x.Seq)
		}
		perLink[x.Link]++
	}
}

func TestLinkChildrenNestsByLinkFrameAndTime(t *testing.T) {
	spans := []span{
		{Name: "client.submit", ReqID: "a#0", Link: "a", Frame: 1, Start: 0, End: 100, Parent: -1},
		{Name: "client.submit", ReqID: "a#1", Link: "a", Frame: 1, Start: 50, End: 300, Parent: -1},
		{Name: "router.submit", Link: "a", Frame: 1, Start: 60, End: 90, Parent: -1},   // inside both: the later
		{Name: "router.submit", Link: "a", Frame: 1, Start: 150, End: 250, Parent: -1}, // inside a#1
		{Name: "router.submit", Link: "a", Frame: 2, Start: 10, End: 20, Parent: -1},   // no caller sent frame 2
		{Name: "router.submit", Link: "b", Frame: 1, Start: 10, End: 20, Parent: -1},   // no caller on link b
	}
	if got := linkChildren(spans, "client.submit", "router.submit"); got != 2 {
		t.Errorf("unmatched = %d, want 2", got)
	}
	if spans[2].Parent != 1 || spans[2].ReqID != "a#1" || spans[3].Parent != 1 {
		t.Errorf("parents = %d (%s), %d; want 1 (a#1), 1", spans[2].Parent, spans[2].ReqID, spans[3].Parent)
	}
	kids := childrenOf(spans)
	if got := selfTimes(spans, kids, "client.submit"); !reflect.DeepEqual(got, []float64{120e-6}) {
		t.Errorf("client self times = %v ms, want [0.00012] (250 ns minus 130 covered)", got)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which describes
// the benchmark to whatever runs it, in step with the metrics reported here.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	var layers []metricDef
	for _, l := range perLayer() {
		layers = append(layers, l.metricDef)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, layers)
	}
}
