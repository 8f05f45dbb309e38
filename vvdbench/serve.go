package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vvd/internal/camera"
	"vvd/internal/core"
	"vvd/internal/room"
	"vvd/internal/serve"
	"vvd/internal/shard"
	"vvd/internal/store/registry"
	"vvd/internal/wire"
)

// The serving workloads' shape.
const (
	serveFrames     = 48              // distinct depth frames the cameras send
	cameraLinks     = 16              // serve-camera: Poisson cameras
	cameraFPS       = 30.0            // mean frames/s per camera
	capacityLinks   = 16              // closed-loop links of the capacity phases
	fanoutReceivers = 1000            // fan-out phase: receiver links
	fanoutHz        = 5.0             // mean fetches/s per receiver
	submitWait      = 2 * time.Second // estimate wait of each Submit
	clientConns     = 2               // client connections to the front end
	maxOutstanding  = 8192            // generator's bound on requests in flight
	// A serving run alternates segments of openSegment of open loop and
	// closedSegment of closed loop, so that both phases sample the whole
	// run: the machine's speed drifts over tens of seconds (other tenants).
	openSegment   = 2 * time.Second
	closedSegment = time.Second
	// Latency and capacity are read in short windows (see best): the
	// host's cores slow by up to 2× for a second or two at a time, and a
	// window this short lies inside one such period or outside it.
	statWindow = 100 * time.Millisecond
	// lateLimitShare is how large the open-loop generator's median
	// lateness, in the windows the latency is read in, may grow against
	// the latency p50 it is part of before the run is invalid: beyond it
	// the figure is mostly the generator's.
	lateLimitShare = 0.5
	// modelSeed fixes the served model's weights: inference cost does not
	// depend on them, and one model keeps every run comparable.
	modelSeed = 0x5eedf00d
	servedRef = "vvd-bench@latest"
)

// cluster is one running serving topology and the inputs it is fed.
type cluster struct {
	frames  [][]float32
	refs    [][]complex64 // direct VVD.Estimate of each frame
	links   []string
	model   *core.VVD // the loaded model of the first backend
	svcs    []*serve.Service
	servers []*wire.Server // backend servers, then the router's
	router  *shard.Router
	clients []*wire.Client
	rec     *recorder
	frameID *frameIndex // traced runs: names frames in spans

	renderUs, putMs, loadMs float64
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.router != nil {
		c.servers[len(c.servers)-1].Close()
		c.router.Close()
		c.servers = c.servers[:len(c.servers)-1]
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, s := range c.svcs {
		s.Close()
	}
}

// seededLinks names n links from the seed (the router shards by link id).
func seededLinks(seed uint64, prefix string, n int) []string {
	rng := rand.New(rand.NewPCG(seed, 0x11d5))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%016x", prefix, rng.Uint64())
	}
	return out
}

// renderFrames renders serveFrames preprocessed depth frames of one walker
// at seeded positions in the paper lab, returning the mean render time.
func renderFrames(seed uint64) ([][]float32, float64) {
	lab := room.DefaultLab()
	cam := camera.New(lab, 90)
	rng := rand.New(rand.NewPCG(seed, 0xf4a3e5))
	area := lab.MovementArea
	frames := make([][]float32, serveFrames)
	t := time.Now()
	for i := range frames {
		pos := room.Vec3{X: area.MinX + rng.Float64()*area.Width(), Y: area.MinY + rng.Float64()*area.Height()}
		frames[i] = cam.RenderPreprocessed(room.DefaultHuman(pos)).NormalizedF32(cam.MaxRange)
	}
	return frames, us(time.Since(t)) / serveFrames
}

// servedModel is a scaled-architecture VVD with fixed seeded weights.
func servedModel() (*core.VVD, error) {
	net, err := core.BuildNetwork(core.ScaledArch(), rand.New(rand.NewPCG(modelSeed, 1)))
	if err != nil {
		return nil, err
	}
	return &core.VVD{Net: net, Norm: 1, Mean: make([]complex128, core.OutputTaps)}, nil
}

type topology struct {
	backends int
	router   bool
}

// buildCluster renders the frames, registers the model in a fresh
// registry, loads it by ref into each backend (compiling its engine),
// starts the backends, the router and the client connections, and warms
// every link up. With rec set, each layer is wrapped to record spans.
func buildCluster(r *run, dir string, top topology, links []string, rec *recorder, warm func(*cluster) error) (*cluster, error) {
	c := &cluster{links: links, rec: rec}
	c.frames, c.renderUs = renderFrames(r.seed)
	var fi *frameIndex
	if rec != nil {
		fi = newFrameIndex(c.frames)
		c.frameID = fi
	}
	m, err := servedModel()
	if err != nil {
		return nil, err
	}
	reg, err := registry.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	d, err := timed(func() error {
		_, err := reg.Put(m, registry.Manifest{Name: "vvd-bench", Variant: "current"})
		return err
	})
	if err != nil {
		return nil, err
	}
	c.putMs = ms(d)
	ref, _, err := reg.Load(servedRef)
	if err != nil {
		return nil, err
	}
	hs, err := ref.EstimateBatch(c.frames)
	if err != nil {
		return nil, err
	}
	for _, h := range hs {
		r64 := make([]complex64, len(h))
		for i, v := range h {
			r64[i] = complex64(v)
		}
		c.refs = append(c.refs, r64)
	}

	var addrs []string
	for b := 0; b < top.backends; b++ {
		var model *core.VVD
		d, err := timed(func() (err error) {
			model, _, err = reg.Load(servedRef)
			return err
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.loadMs += ms(d) / float64(top.backends)
		if _, err := model.Engine(); err != nil {
			c.close()
			return nil, err
		}
		if b == 0 {
			c.model = model
		}
		var est serve.BatchEstimator = model
		if rec != nil {
			est = &timingEstimator{inner: model, rec: rec}
		}
		svc, err := serve.New(serve.Config{
			Estimator: est, InputSize: model.Net.In.Size(),
			QueueDepth: 8, MaxBatch: 8, LinkBuffer: 4, MaxLinks: 10000,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.svcs = append(c.svcs, svc)
		var h wire.Handler = wire.NewServiceHandler(svc)
		if rec != nil {
			h = &timingHandler{inner: h, name: "backend", rec: rec, frames: fi}
		}
		srv := wire.NewServer(h, wire.ServerConfig{})
		c.servers = append(c.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		addrs = append(addrs, addr.String())
	}
	front := addrs[0]
	if top.router {
		c.router, err = shard.NewRouter(shard.Config{Backends: addrs})
		if err != nil {
			c.close()
			return nil, err
		}
		var h wire.Handler = c.router
		if rec != nil {
			h = &timingHandler{inner: h, name: "router", rec: rec, frames: fi}
		}
		srv := wire.NewServer(h, wire.ServerConfig{})
		c.servers = append(c.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		front = addr.String()
	}
	for i := 0; i < clientConns; i++ {
		cl, err := wire.Dial(front, wire.ClientConfig{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	if err := warm(c); err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *cluster) client(link int) *wire.Client { return c.clients[link%len(c.clients)] }

// matchesRef reports whether a served CIR equals the direct estimate of one
// of the frames within float32 rounding, trying the sent frame first.
func (c *cluster) matchesRef(cir []complex64, sent int) bool {
	if sent >= 0 && sameCIR(cir, c.refs[sent]) {
		return true
	}
	for _, ref := range c.refs {
		if sameCIR(cir, ref) {
			return true
		}
	}
	return false
}

func sameCIR(a, b []complex64) bool {
	if len(a) != len(b) {
		return false
	}
	var scale float64
	for _, v := range b {
		scale = math.Max(scale, math.Max(math.Abs(float64(real(v))), math.Abs(float64(imag(v)))))
	}
	tol := scale*1e-6 + 1e-30
	for i := range a {
		if math.Abs(float64(real(a[i]-b[i]))) > tol || math.Abs(float64(imag(a[i]-b[i]))) > tol {
			return false
		}
	}
	return true
}

// outcome tallies a phase's operations.
type outcome struct {
	attempted, ok, sheds, notReady, errs, bad, overflow atomic.Int64
}

func (o *outcome) fail(err error) {
	switch wire.CodeOf(err) {
	case wire.StatusOverloaded:
		o.sheds.Add(1)
	case wire.StatusNotReady:
		o.notReady.Add(1)
	default:
		o.errs.Add(1)
	}
}

func (o *outcome) failed() int64 {
	return o.sheds.Load() + o.notReady.Load() + o.errs.Load() + o.bad.Load() + o.overflow.Load()
}

func (o *outcome) String() string {
	return fmt.Sprintf("%d attempted, %d ok, %d shed, %d not ready, %d errors, %d wrong outputs, %d not sent",
		o.attempted.Load(), o.ok.Load(), o.sheds.Load(), o.notReady.Load(), o.errs.Load(), o.bad.Load(), o.overflow.Load())
}

func (o *outcome) addTo(r *run) {
	r.attempted += o.attempted.Load()
	r.failed += o.failed()
	r.badOutputs += o.bad.Load()
}

// checkServed counts a phase's operations into the run. The workloads stay
// well inside the system's capacity, so a request that fails, is shed or
// is not sent fails the run.
func checkServed(r *run, tag string, open, closed *outcome) {
	open.addTo(r)
	closed.addTo(r)
	r.check(open.failed() == 0 && closed.failed() == 0, "%s: serving requests failed (open loop: %s; closed loop: %s)", tag, open.String(), closed.String())
}

// request performs one operation for arrival a and reports success.
type request func(a arrival) bool

// loopSamples are an open loop's per-arrival latency (ms from the due
// time, +Inf when failed), lateness (ms) and statistics window.
type loopSamples struct {
	lat, late []float64
	window    []int
	windows   int
}

// add appends a later segment's samples, numbering its windows after
// those already held.
func (s *loopSamples) add(seg loopSamples) {
	for _, w := range seg.window {
		s.window = append(s.window, s.windows+w)
	}
	s.lat = append(s.lat, seg.lat...)
	s.late = append(s.late, seg.late...)
	s.windows += seg.windows
}

// due returns the arrivals of a due-ordered schedule due in [from, to).
func due(sched []arrival, from, to time.Duration) []arrival {
	i := sort.Search(len(sched), func(i int) bool { return sched[i].Due >= from })
	j := sort.Search(len(sched), func(j int) bool { return sched[j].Due >= to })
	return sched[i:j]
}

// openLoop sends each arrival of sched due in [from, to) when it is due,
// whether or not the link's previous request has returned, and times it
// from the due time. The segment starts now.
func openLoop(sched []arrival, from, to time.Duration, do request, o *outcome) (loopSamples, error) {
	sched = due(sched, from, to)
	s := loopSamples{
		lat:     make([]float64, len(sched)),
		late:    make([]float64, len(sched)),
		window:  make([]int, len(sched)),
		windows: int((to - from + statWindow - 1) / statWindow),
	}
	for i, a := range sched {
		s.window[i] = int((a.Due - from) / statWindow)
	}
	pace, err := newPacer()
	if err != nil {
		return loopSamples{}, err
	}
	defer pace.close()
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now().Add(time.Millisecond)
	for i, a := range sched {
		due := start.Add(a.Due - from)
		if err := pace.sleepUntil(due); err != nil {
			return loopSamples{}, err
		}
		o.attempted.Add(1)
		select {
		case sem <- struct{}{}:
		default:
			o.overflow.Add(1)
			s.lat[i], s.late[i] = math.Inf(1), ms(time.Since(due))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s.late[i] = ms(time.Since(due))
			if do(a) {
				s.lat[i] = ms(time.Since(due))
			} else {
				s.lat[i] = math.Inf(1)
			}
		}()
	}
	wg.Wait()
	return s, nil
}

// closedLoop runs links back to back for d and returns the operations
// completed per second in each statWindow of it.
func closedLoop(links int, d time.Duration, do request, o *outcome) []float64 {
	buckets := make([]atomic.Int64, max(1, int(d/statWindow)))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(len(buckets)) * statWindow)
	for l := 0; l < links; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				o.attempted.Add(1)
				if do(arrival{Link: l, Seq: k, Frame: (l*7 + k) % serveFrames}) {
					if b := int(time.Since(start) / statWindow); b < len(buckets) {
						buckets[b].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, len(buckets))
	for i := range buckets {
		rates[i] = float64(buckets[i].Load()) / statWindow.Seconds()
	}
	return rates
}

// submitReq sends frame a.Frame on link a.Link and waits for its estimate,
// checking that the estimate is at least as new as the frame and equals the
// direct estimate of one of the frames.
func (c *cluster) submitReq(o *outcome) request {
	return func(a arrival) bool {
		var reply wire.EstimateReply
		link := c.links[a.Link]
		s := span{Name: "client.submit", ReqID: reqID(link, a.Seq), Parent: -1, Link: link}
		if c.rec != nil {
			s.Frame, s.Start = c.frameID.canon[a.Frame], c.rec.now()
		}
		err := c.client(a.Link).Submit(link, c.frames[a.Frame], submitWait, &reply)
		if c.rec != nil {
			s.End = c.rec.now()
			c.rec.add(s)
		}
		if err != nil {
			o.fail(err)
			return false
		}
		if reply.FrameSeq < reply.SubmittedSeq || !c.matchesRef(reply.CIR, a.Frame) {
			o.bad.Add(1)
			return false
		}
		o.ok.Add(1)
		return true
	}
}

// fetchReq reads link a.Link's freshest estimate and checks it.
func (c *cluster) fetchReq(o *outcome) request {
	return func(a arrival) bool {
		var reply wire.EstimateReply
		link := c.links[a.Link]
		s := span{Name: "client.fetch", ReqID: reqID(link, a.Seq), Parent: -1, Link: link, Frame: -1}
		if c.rec != nil {
			s.Start = c.rec.now()
		}
		err := c.client(a.Link).Fetch(link, &reply)
		if c.rec != nil {
			s.End = c.rec.now()
			c.rec.add(s)
		}
		if err != nil {
			o.fail(err)
			return false
		}
		if reply.FrameSeq == 0 || !c.matchesRef(reply.CIR, -1) {
			o.bad.Add(1)
			return false
		}
		o.ok.Add(1)
		return true
	}
}

// feedReq is the fan-out camera: fire-and-forget submits on link 0.
func (c *cluster) feedReq(o *outcome, camera string) request {
	return func(a arrival) bool {
		var reply wire.EstimateReply
		s := span{Name: "client.submit", ReqID: reqID(camera, a.Seq), Parent: -1, Link: camera}
		if c.rec != nil {
			s.Frame, s.Start = c.frameID.canon[a.Frame], c.rec.now()
		}
		err := c.clients[0].SubmitNoWait(camera, c.frames[a.Frame], &reply)
		if c.rec != nil {
			s.End = c.rec.now()
			c.rec.add(s)
		}
		if err != nil {
			o.fail(err)
			return false
		}
		if reply.SubmittedSeq == 0 {
			o.bad.Add(1)
			return false
		}
		o.ok.Add(1)
		return true
	}
}

// counters snapshots the serving layers' own counters.
type counters struct {
	submitted, dropped, inferred, batches   uint64
	serverSheds                             uint64
	routerRequests, routerSheds, routerErrs uint64
}

// add accumulates the change from a to b.
func (k *counters) add(a, b counters) {
	k.submitted += b.submitted - a.submitted
	k.dropped += b.dropped - a.dropped
	k.inferred += b.inferred - a.inferred
	k.batches += b.batches - a.batches
	k.serverSheds += b.serverSheds - a.serverSheds
	k.routerRequests += b.routerRequests - a.routerRequests
	k.routerSheds += b.routerSheds - a.routerSheds
	k.routerErrs += b.routerErrs - a.routerErrs
}

func (c *cluster) counters() counters {
	var k counters
	for _, s := range c.svcs {
		m := s.Metrics()
		k.submitted += m.FramesSubmitted
		k.dropped += m.FramesDropped
		k.inferred += m.FramesInferred
		k.batches += m.Batches
	}
	for _, s := range c.servers {
		k.serverSheds += s.Sheds()
	}
	if c.router != nil {
		for _, st := range c.router.Status() {
			k.routerRequests += st.Requests
			k.routerSheds += st.Sheds
			k.routerErrs += st.Errors
		}
	}
	return k
}

// phaseResult is one measured serving phase.
type phaseResult struct {
	setupS     float64
	lat        tail
	late       tail
	capacity   float64
	heapMB     float64 // median over segments of each one's peak heap
	rt         runtimeStats
	delta      counters      // counter changes over the open-loop segments
	wall       time.Duration // open-loop wall time
	spans      []span
	estimators int
}

// serveLoad is a serving workload's traffic.
type serveLoad struct {
	// open runs the open-loop arrivals due in [from, to) and returns the
	// latency samples of the timed ones.
	open func(c *cluster, o *outcome, from, to time.Duration) (loopSamples, error)
	// closed is the closed-loop operation.
	closed func(c *cluster, o *outcome) request
}

// servePhase builds a cluster, then alternates segments of open and
// closed loop for d. After each segment it builds and tears down one more
// cluster, so that the set-up, like latency and capacity, is timed across
// the whole run and read in its best quarter (see best); a collection
// then clears that cluster's garbage before the next segment.
func servePhase(r *run, tag string, spec serveSpec, traced bool, d time.Duration) (*phaseResult, *cluster, error) {
	load := spec.load
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
		rec.on.Store(false)
	}
	var setups []float64
	build := func() (*cluster, error) {
		t := time.Now()
		c, err := buildCluster(r, filepath.Join(r.work, fmt.Sprintf("%s-registry%d", tag, len(setups))), spec.top, spec.links, rec, spec.warm)
		setups = append(setups, time.Since(t).Seconds())
		return c, err
	}
	c, err := build()
	if err != nil {
		return nil, nil, err
	}
	res := &phaseResult{estimators: len(c.svcs)}
	segments := max(1, int(d/(openSegment+closedSegment)))
	var open, capOut outcome
	var samples loopSamples
	var rates, heaps []float64
	runtime.GC()
	probe := startRuntimeProbe()
	for k := 0; k < segments; k++ {
		from := time.Duration(k) * openSegment
		before := c.counters()
		if rec != nil {
			rec.on.Store(true) // only the open loop is traced
		}
		t := time.Now()
		seg, err := load.open(c, &open, from, from+openSegment)
		if err != nil {
			c.close()
			return nil, nil, err
		}
		res.wall += time.Since(t)
		if rec != nil {
			rec.on.Store(false)
		}
		res.delta.add(before, c.counters())
		samples.add(seg)
		rates = append(rates, closedLoop(capacityLinks, closedSegment, load.closed(c, &capOut), &capOut)...)
		heaps = append(heaps, probe.cut())
		extra, err := build()
		if err != nil {
			c.close()
			return nil, nil, err
		}
		extra.close()
		runtime.GC()
		probe.cut() // the extra set-up's heap is not the next segment's
	}
	res.rt = probe.finish()
	if rec != nil {
		rec.mu.Lock()
		res.spans = rec.spans
		rec.mu.Unlock()
	}
	// Latency and capacity are read in the best quarter of the windows
	// (see best): latency over the pooled requests, capacity as the
	// median window.
	medians := byWindow(samples.lat, samples.window, samples.windows, 50)
	keep := best(medians, bestShare)
	res.lat = pooled(samples.lat, samples.window, keep)
	res.late = pooled(samples.late, samples.window, keep)
	res.capacity = -fastest(scaled(rates, -1), bestShare)
	res.setupS = fastest(setups, bestShare)
	// The heap peaks at a collection; a segment sees several, the whole
	// run dozens, and the highest of dozens is the noisiest reading.
	res.heapMB = median(heaps)
	r.logf("%s open loop: %s; latency p50 %.3f ms, p%g %.3f ms over the %d requests of the best quarter of %d windows of %v; generator late p50 %.3f ms, p%g %.3f ms in the same windows",
		tag, open.String(), res.lat.P50, res.lat.TailP, res.lat.TailV, res.lat.N, samples.windows, statWindow, res.late.P50, res.late.TailP, res.late.TailV)
	r.logf("%s capacity: %.0f/s (median of the best quarter of %d windows of %v in %d closed-loop segments; %s); set-up %.3f s (median of the fastest quarter of %d); peak heap %.1f MB (median over segments; %.1f MB over the run); steal %.3f",
		tag, res.capacity, len(rates), statWindow, segments, capOut.String(), res.setupS, len(setups), res.heapMB, res.rt.PeakHeapMB, res.rt.StealShare)
	r.logf("%s open-loop p50 by window, deciles: %s", tag, fmtList(deciles(medians)))
	r.logf("%s open-loop p99 by window, deciles: %s", tag, fmtList(deciles(byWindow(samples.lat, samples.window, samples.windows, 99))))
	r.logf("%s capacity by window, deciles: %s", tag, fmtList(deciles(rates)))
	r.logf("%s peak heap MB by segment, deciles: %s", tag, fmtList(deciles(heaps)))
	checkServed(r, tag, &open, &capOut)
	return res, c, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

func reportServe(r *run, p *phaseResult) {
	r.set("setup_s", p.setupS)
	r.set("latency_p50_ms", p.lat.P50)
	r.set("throughput_per_s", p.capacity)
	r.set("peak_heap_mb", p.heapMB)
}

// serveLayers reports the serving per-layer metrics: the camera's from
// its traced phase (untraced is the untraced phase, for the overhead),
// the read path's from the traced fan-out phase.
func serveLayers(r *run, c *cluster, untraced, p, fan *phaseResult) error {
	spans := p.spans
	unmatched := linkChildren(spans, "client.submit", "router.submit") +
		linkChildren(spans, "router.submit", "backend.submit") +
		linkChildren(fan.spans, "client.fetch", "backend.fetch") +
		linkChildren(fan.spans, "client.submit", "backend.submit")
	r.check(unmatched == 0, "%d handler spans do not nest inside a caller span", unmatched)
	set2 := func(name string, xs []float64, scale float64) {
		t := summarize(xs)
		if t.N == 0 {
			return
		}
		r.set(name+".p50", t.P50*scale)
		r.set(name+".p99", t.TailV*scale)
	}
	kids := childrenOf(spans)
	set2("wire.client_hop_ms", selfTimes(spans, kids, "client.submit"), 1)
	set2("shard.forward_ms", selfTimes(spans, kids, "router.submit"), 1)
	set2("serve.session_ms", durations(spans, "backend.submit", false), 1)
	set2("serve.wait_ms", durations(spans, "backend.submit", true), 1)
	set2("serve.fetch_us", durations(fan.spans, "backend.fetch", false), 1e3)
	var busy int64
	for _, s := range spans {
		if s.Name == "estimator.batch" {
			busy += s.dur()
		}
	}
	r.set("serve.estimator_busy_share", float64(busy)/float64(p.wall)/float64(p.estimators))
	k := p.delta
	if k.batches > 0 {
		r.set("serve.batch_mean", float64(k.inferred)/float64(k.batches))
	}
	if k.submitted > 0 {
		r.set("serve.frames_dropped_share", float64(k.dropped)/float64(k.submitted))
	}
	r.set("wire.server_sheds", float64(k.serverSheds+fan.delta.serverSheds))
	if k.routerRequests > 0 {
		r.set("shard.sheds_share", float64(k.routerSheds)/float64(k.routerRequests))
		r.set("shard.errors", float64(k.routerErrs))
	}
	r.set("runtime.gc_pause_p99_ms", p.rt.GCPauseP99Ms)
	r.set("runtime.gc_cpu_share", p.rt.GCCPUShare)
	r.set("host.steal_share", p.rt.StealShare)
	r.set("loadgen.late_p99_ms", p.late.TailV)
	r.set("e2e.latency_p99_ms", untraced.lat.TailV)
	r.set("trace_overhead", p.lat.P50/untraced.lat.P50-1)
	r.set("camera.render_us", c.renderUs)
	r.set("registry.put_ms", c.putMs)
	r.set("registry.load_ms", c.loadMs)
	if err := probeModel(r, c.model, c.frames); err != nil {
		return err
	}
	return writeTrace(r, append(spans, fan.spans...))
}

// openDuration is the open-loop time servePhase runs in d.
func openDuration(d time.Duration) time.Duration {
	return time.Duration(max(1, int(d/(openSegment+closedSegment)))) * openSegment
}

// serveSpec is a serving phase's topology, links and traffic.
type serveSpec struct {
	top   topology
	links []string
	warm  func(*cluster) error
	load  serveLoad
}

// runServeCamera runs the camera phase untraced. With --trace 1 it then
// runs it traced and, last, the fan-out read phase traced, each phase for
// a third of the time.
func runServeCamera(r *run) error {
	d := r.seconds
	if r.trace {
		d /= 3
	}
	camera := cameraSpec(r)
	p, c, err := servePhase(r, "untraced", camera, false, d)
	if err != nil {
		return err
	}
	c.close()
	if p.late.P50 > lateLimitShare*p.lat.P50 {
		r.invalid = append(r.invalid, fmt.Sprintf("generator median lateness %.3f ms exceeds %g of the latency p50 %.3f ms", p.late.P50, lateLimitShare, p.lat.P50))
	}
	if !r.trace {
		reportServe(r, p)
		return nil
	}
	tp, tc, err := servePhase(r, "traced", camera, true, d)
	if err != nil {
		return err
	}
	defer tc.close()
	fp, fc, err := servePhase(r, "fanout", fanoutSpec(r), true, d)
	if err != nil {
		return err
	}
	fc.close()
	return serveLayers(r, tc, p, tp, fp)
}

// cameraSpec: 16 Poisson cameras submit through a router to two backends.
func cameraSpec(r *run) serveSpec {
	// The router places links by hashing them onto a ring keyed by the
	// backends' addresses, whose ports change from run to run; the cameras
	// are the first cameraLinks/2 of seeded candidates that land on each
	// backend, so every run splits them evenly. Four candidates per camera
	// make a ring that leaves a backend too few of them vanishingly rare.
	candidates := seededLinks(r.seed, "cam", 4*cameraLinks)
	warm := func(c *cluster) error {
		var o outcome
		var wg sync.WaitGroup
		for l := range c.links {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 2; k++ {
					o.attempted.Add(1)
					c.submitReq(&o)(arrival{Link: l, Seq: -1 - k, Frame: (l + k) % serveFrames})
				}
			}()
		}
		wg.Wait()
		if f := o.failed(); f > 0 {
			return fmt.Errorf("%d of %d warm-up submits failed (%s)", f, o.attempted.Load(), o.String())
		}
		perBackend := cameraLinks / len(c.svcs)
		taken := make([]int, len(c.svcs))
		var links []string
		for _, id := range c.links {
			for b, svc := range c.svcs {
				if _, err := svc.Link(id); err == nil && taken[b] < perBackend {
					taken[b]++
					links = append(links, id)
				}
			}
		}
		if len(links) != cameraLinks {
			return fmt.Errorf("only %v of %d candidate links landed on each backend", taken, len(c.links))
		}
		c.links = links
		return nil
	}
	sched := poissonSchedule(r.seed, cameraLinks, cameraFPS, openDuration(r.seconds), serveFrames)
	load := serveLoad{
		open: func(c *cluster, o *outcome, from, to time.Duration) (loopSamples, error) {
			return openLoop(sched, from, to, c.submitReq(o), o)
		},
		closed: func(c *cluster, o *outcome) request { return c.submitReq(o) },
	}
	return serveSpec{topology{backends: 2, router: true}, candidates, warm, load}
}

// fanoutSpec is paper §6.6, where one inference serves every link: one
// camera feeds a backend, reached directly, while 1,000 receiver links
// fetch the freshest estimate.
func fanoutSpec(r *run) serveSpec {
	// Link 0 is the camera; the rest are receivers.
	links := append(seededLinks(r.seed, "cam", 1), seededLinks(r.seed^0xfa, "rx", fanoutReceivers)...)
	camera := links[0]
	warm := func(c *cluster) error {
		var reply wire.EstimateReply
		for k := 0; k < 2; k++ {
			if err := c.clients[0].Submit(camera, c.frames[k], submitWait, &reply); err != nil {
				return err
			}
		}
		var o outcome
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for l := 1 + w; l < len(c.links); l += 8 {
					o.attempted.Add(1)
					c.fetchReq(&o)(arrival{Link: l, Seq: -1})
				}
			}()
		}
		wg.Wait()
		if f := o.failed(); f > 0 {
			return fmt.Errorf("%d of %d warm-up fetches failed (%s)", f, o.attempted.Load(), o.String())
		}
		return nil
	}
	feed := poissonSchedule(r.seed^0xca, 1, cameraFPS, openDuration(r.seconds), serveFrames)
	fetches := poissonSchedule(r.seed, fanoutReceivers, fanoutHz, openDuration(r.seconds), 1)
	for i := range fetches {
		fetches[i].Link++ // receivers follow the camera
	}
	load := serveLoad{
		// The camera's submits count as operations; only fetches are timed.
		open: func(c *cluster, o *outcome, from, to time.Duration) (loopSamples, error) {
			fed := make(chan error, 1)
			go func() {
				_, err := openLoop(feed, from, to, c.feedReq(o, camera), o)
				fed <- err
			}()
			samples, err := openLoop(fetches, from, to, c.fetchReq(o), o)
			if ferr := <-fed; err == nil {
				err = ferr
			}
			return samples, err
		},
		closed: func(c *cluster, o *outcome) request {
			fetch := c.fetchReq(o)
			return func(a arrival) bool {
				a.Link++ // receivers only
				return fetch(a)
			}
		},
	}
	return serveSpec{topology{backends: 1}, links, warm, load}
}
