package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// environment is the record printed with every run, so that a noisy or
// foreign host can be told apart from a regression.
type environment struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
}

func readEnvironment() environment {
	env := environment{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			env.Commit = rev + dirty
		}
	}
	return env
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so stop at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of CPU time the hypervisor took between a and b
// (0 when /proc/stat is unreadable).
func stealShare(a, b cpuTimes, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// runtimeProbe samples the Go runtime over a measured phase: the heap's
// peak (sampled every few milliseconds, without stopping the world), GC
// pauses and the share of CPU time the collector used.
type runtimeProbe struct {
	start []metrics.Sample
	cpuA  cpuTimes
	cpuOK bool
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	peak     uint64 // since the probe started
	sincecut uint64 // since the last cut
}

func (p *runtimeProbe) sample(v uint64) {
	p.mu.Lock()
	p.peak, p.sincecut = max(p.peak, v), max(p.sincecut, v)
	p.mu.Unlock()
}

// cut returns the heap peak since the previous cut (or the start) in MB
// and starts the next span.
func (p *runtimeProbe) cut() float64 {
	s := []metrics.Sample{{Name: mHeap}}
	metrics.Read(s)
	p.sample(s[0].Value.Uint64())
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := p.sincecut
	p.sincecut = 0
	return float64(peak) / 1e6
}

const (
	mHeap    = "/memory/classes/heap/objects:bytes"
	mPauses  = "/sched/pauses/total/gc:seconds"
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU  = "/cpu/classes/total:cpu-seconds"
	heapTick = 5 * time.Millisecond
)

func runtimeSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: mHeap}, {Name: mPauses}, {Name: mGCCPU}, {Name: mAllCPU}}
	metrics.Read(s)
	return s
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	p.cpuA, p.cpuOK = readCPUTimes()
	p.start = runtimeSamples()
	p.sample(p.start[0].Value.Uint64())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(heapTick)
		defer t.Stop()
		s := []metrics.Sample{{Name: mHeap}}
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				metrics.Read(s)
				p.sample(s[0].Value.Uint64())
			}
		}
	}()
	return p
}

// runtimeStats is what a probe measured.
type runtimeStats struct {
	PeakHeapMB   float64
	GCPauseP99Ms float64
	GCCPUShare   float64
	StealShare   float64
}

func (p *runtimeProbe) finish() runtimeStats {
	close(p.stop)
	p.wg.Wait()
	end := runtimeSamples()
	cpuB, okB := readCPUTimes()
	p.sample(end[0].Value.Uint64())
	st := runtimeStats{
		PeakHeapMB: float64(p.peak) / 1e6,
		StealShare: stealShare(p.cpuA, cpuB, p.cpuOK, okB),
	}
	if all := end[3].Value.Float64() - p.start[3].Value.Float64(); all > 0 {
		st.GCCPUShare = (end[2].Value.Float64() - p.start[2].Value.Float64()) / all
	}
	st.GCPauseP99Ms = histDeltaP99(p.start[1].Value.Float64Histogram(), end[1].Value.Float64Histogram()) * 1e3
	return st
}

// histDeltaP99 is the p99 of the observations a cumulative runtime
// histogram gained between two reads, at the bucket's upper bound (0 if
// nothing was observed).
func histDeltaP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rankOf(99, int(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

func (e environment) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
}
