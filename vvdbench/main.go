// Command vvdbench is the repository benchmark: one workload per run, a
// seeded input, output checks, and one JSON result line.
//
//	bash vvdbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	campaign      config → generated campaign → KV commit → reopen and
//	              stream back → train one VVD → register → Fig. 12
//	              evaluation, plus the Table 1 inference latency.
//	serve-camera  16 Poisson cameras (30 fps each) submitting frames through
//	              a router in front of two serve backends, alternating with
//	              a closed-loop capacity phase.
//
// With --trace 0 the run reports the end-to-end metrics of layers.go; with
// --trace 1 it runs the workload untraced and then traced, and reports the
// per-layer metrics, including the tracing overhead. A traced serve-camera
// run adds a fan-out phase for the read path: one camera feeding a backend
// while 1,000 receiver links fetch the freshest estimate (5 Hz each). The last line of
// standard output is the JSON result; a failed output check exits 1, a run
// whose load generator fell behind exits 3 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark invocation's settings and outcome.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory inside the checkout

	attempted, failed int64
	badOutputs        int64 // operations whose output failed a check (counted in failed)
	checkFailures     []string
	invalid           []string
	values            map[string]float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// check records an output check; a failed one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"campaign":     runCampaign,
	"serve-camera": runServeCamera,
}

func main() {
	var (
		workload = flag.String("workload", "", "campaign | serve-camera")
		seed     = flag.Uint64("seed", 1, "workload seed: drives the campaign, arrival schedules, frame choice and link ids")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "vvdbench: need --workload campaign|serve-camera, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(execute(&run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		values:   map[string]float64{},
	}, fn))
}

func execute(r *run, fn func(*run) error) int {
	env := readEnvironment()
	r.logf("vvdbench workload=%s seed=%d seconds=%.0f trace=%v", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	r.logf("env %s", env)
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vvdbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	r.work = work

	cpuA, okA := readCPUTimes()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "vvdbench: %s: %v\n", r.workload, err)
		return 1
	}
	cpuB, okB := readCPUTimes()
	r.logf("host steal share over the run = %.4f (CPU time taken by other tenants; figures from a run with much steal are noisy)", stealShare(cpuA, cpuB, okA, okB))
	failShare := 0.0
	if r.attempted > 0 {
		failShare = float64(r.failed) / float64(r.attempted)
	}
	r.set("run.fail_share", failShare)
	r.logf("fail_share = %.6f (%d failed of %d attempted)", failShare, r.failed, r.attempted)
	if len(r.invalid) > 0 {
		for _, msg := range r.invalid {
			r.logf("INVALID: %s", msg)
		}
		fmt.Fprintln(os.Stderr, "vvdbench: run invalid, no result reported")
		return 3
	}

	type row struct {
		metricDef
		note string // traced runs: the layer's module and what it should move
	}
	var rows []row
	if r.trace {
		for _, d := range perLayer() {
			rows = append(rows, row{d.metricDef, fmt.Sprintf("[%s → %s; %s]", d.Module, d.Moves, d.Workload)})
		}
	} else {
		for _, d := range endToEnd {
			rows = append(rows, row{metricDef: d})
		}
	}
	res := result{Correct: len(r.checkFailures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range rows {
		v, ok := r.values[d.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a percentile that landed on a failed request
		}
		if math.IsNaN(v) {
			res.Correct = false
			r.checkFailures = append(r.checkFailures, d.Name+" was not measured")
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		r.logf("%-34s %14.6g %-10s %s", d.Name, v, d.Unit, d.note)
	}
	if r.badOutputs > 0 {
		res.Correct = false
		r.logf("CHECK FAILED: %d operations returned a wrong output", r.badOutputs)
	}
	for _, f := range r.checkFailures {
		r.logf("CHECK FAILED: %s", f)
	}
	if len(r.checkFailures) > 0 {
		res.Correct = false
		// A failed run-level check counts as a failed operation.
		res.Failed += int64(len(r.checkFailures))
		res.Attempted += int64(len(r.checkFailures))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vvdbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
