package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"vvd/internal/camera"
	"vvd/internal/channel"
	"vvd/internal/core"
	"vvd/internal/dataset"
	"vvd/internal/dsp"
	"vvd/internal/estimate"
	"vvd/internal/experiments"
	"vvd/internal/nn"
	"vvd/internal/phy"
)

// Probes time single layers through their public functions, outside the
// workload's measured phase. Each reports a median over repetitions.
const (
	probeReps     = 5
	layerBatch    = 16
	decodeSample  = 60
	replayPackets = 120
	replayRounds  = 3
)

// repeat times f reps times and returns the median duration.
func repeat(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := timed(f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// probeDecode times Receiver.Decode on a sample of test receptions with
// their ground-truth estimates.
func probeDecode(r *run, c *dataset.Campaign, cb dataset.Combination) error {
	test := c.TestPackets(cb)
	var ds []float64
	for i := 0; i < decodeSample && i < len(test); i++ {
		pkt := test[i]
		ppdu, _, chips, rec, err := c.Reception(cb.Test, pkt.Index)
		if err != nil {
			return err
		}
		rxc, _ := c.Receiver.CorrectCFO(rec.Waveform)
		t := time.Now()
		c.Receiver.Decode(rxc, ppdu, chips, pkt.Perfect)
		ds = append(ds, us(time.Since(t)))
	}
	r.set("estimate.decode_us", median(ds))
	return nil
}

// probeModel times the model's CNN layer by layer, its optimizer step, its
// compiled inference engine at several batch sizes and processor counts,
// and one VVD.Estimate.
func probeModel(r *run, v *core.VVD, imgs [][]float32) error {
	if err := probeLayers(r, v.Net, imgs); err != nil {
		return err
	}
	clone := v.Net.Clone()
	opt := nn.NewNadam()
	d, err := repeat(20, func() error { opt.Step(clone.Params(), layerBatch); return nil })
	if err != nil {
		return err
	}
	r.set("nn.optimizer_ms", ms(d))

	eng, err := v.Clone().Engine()
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	for _, b := range []int{1, 8, 32} {
		for _, p := range []int{procs, 1} {
			runtime.GOMAXPROCS(p)
			perFrame, err := engineUsPerFrame(eng, imgs, b)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("nn.engine_us_per_frame.b%d", b)
			if p == 1 {
				name += "-p1"
			}
			r.set(name, perFrame)
		}
	}
	ins, outs := engineBatch(eng, imgs, 8)
	if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
		return err
	}
	const allocRuns = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	r.set("nn.engine_allocs.b8", float64(m1.Mallocs-m0.Mallocs)/allocRuns)

	var ests []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err := v.Estimate(imgs[i%len(imgs)]); err != nil {
			return err
		}
		ests = append(ests, us(time.Since(t)))
	}
	r.set("core.estimate_us", median(ests))
	return nil
}

func engineBatch(eng *nn.InferenceEngine, imgs [][]float32, b int) (ins, outs [][]float32) {
	ins = make([][]float32, b)
	outs = make([][]float32, b)
	for i := range ins {
		ins[i] = imgs[i%len(imgs)]
		outs[i] = make([]float32, eng.OutShape().Size())
	}
	return ins, outs
}

// engineUsPerFrame is the median over probeReps of the per-frame time of
// batches of b frames through ForwardBatchF32Into, each repetition running
// about 64 frames.
func engineUsPerFrame(eng *nn.InferenceEngine, imgs [][]float32, b int) (float64, error) {
	ins, outs := engineBatch(eng, imgs, b)
	calls := max(1, 64/b)
	if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
		return 0, err
	}
	d, err := repeat(probeReps, func() error {
		for i := 0; i < calls; i++ {
			if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
				return err
			}
		}
		return nil
	})
	return us(d) / float64(calls*b), err
}

// probeLayers times Forward and Backward of each conv, pool and dense
// layer of a clone of net over a batch of layerBatch frames, one sample at
// a time as training does.
func probeLayers(r *run, net *nn.Network, imgs [][]float32) error {
	clone := net.Clone()
	names := make([]string, len(clone.Layers))
	counts := map[string]int{}
	for i, l := range clone.Layers {
		var kind string
		switch l.(type) {
		case *nn.Conv2D:
			kind = "conv"
		case *nn.Pool2D:
			kind = "pool"
		case *nn.Dense:
			kind = "dense"
		default:
			continue
		}
		counts[kind]++
		names[i] = fmt.Sprintf("%s%d", kind, counts[kind])
	}
	xs := make([][]float64, layerBatch)
	for s := range xs {
		img := imgs[s%len(imgs)]
		xs[s] = make([]float64, len(img))
		for i, v := range img {
			xs[s][i] = float64(v)
		}
	}
	fwd := make([][]float64, len(clone.Layers))
	bwd := make([][]float64, len(clone.Layers))
	for rep := 0; rep < probeReps; rep++ {
		f := make([]time.Duration, len(clone.Layers))
		b := make([]time.Duration, len(clone.Layers))
		for _, x := range xs {
			for i, l := range clone.Layers {
				t := time.Now()
				x = l.Forward(x)
				f[i] += time.Since(t)
			}
			g := make([]float64, len(x))
			for i := range g {
				g[i] = 1e-3
			}
			for i := len(clone.Layers) - 1; i >= 0; i-- {
				t := time.Now()
				g = clone.Layers[i].Backward(g)
				b[i] += time.Since(t)
			}
		}
		clone.ZeroGrad()
		for i := range f {
			fwd[i] = append(fwd[i], ms(f[i]))
			bwd[i] = append(bwd[i], ms(b[i]))
		}
	}
	for i, n := range names {
		if n != "" {
			r.set("nn."+n+".fwd_ms", median(fwd[i]))
			r.set("nn."+n+".bwd_ms", median(bwd[i]))
		}
	}
	return nil
}

// probeGeneration replays the per-packet chain dataset.Generate runs, one
// public stage function at a time, over the packets of a seeded one-set
// campaign, and checks that the stages account for Generate's own time per
// packet on that campaign at one worker. Generate and the replay alternate
// for replayRounds rounds; each figure is the median over rounds.
func probeGeneration(r *run, params experiments.Params, seed uint64) error {
	cfg := params.Campaign
	cfg.Sets, cfg.PacketsPerSet, cfg.Workers, cfg.Seed = 1, replayPackets, 1, seed^0xc0ffee
	rounds := map[string][]float64{}
	var last stageTimes
	for i := 0; i < replayRounds; i++ {
		var c *dataset.Campaign
		gen, err := timed(func() (err error) {
			c, err = dataset.Generate(cfg)
			return err
		})
		if err != nil {
			return err
		}
		st, err := replayStages(c, seed)
		if err != nil {
			return err
		}
		for name, v := range map[string]float64{
			"camera.render_us":        st.render,
			"channel.cir_us":          st.cir,
			"channel.transmit_us":     st.transmit - st.cir,
			"estimate.sync_us":        st.sync,
			"estimate.ls_truth_us":    st.lsTruth,
			"estimate.ls_preamble_us": st.lsPre,
			"dataset.stage_coverage":  st.total() / (us(gen) / replayPackets),
		} {
			rounds[name] = append(rounds[name], v)
		}
		last = st
	}
	for name, vs := range rounds {
		r.set(name, median(vs))
	}
	coverage := median(rounds["dataset.stage_coverage"])
	r.logf("generation replay: %.0f µs/packet in stages (tx build %.0f µs, %.2f frames rendered per packet), coverage of Generate at 1 worker %s",
		last.total(), last.tx, last.renderShare, fmtList(rounds["dataset.stage_coverage"]))
	r.check(coverage >= minCoverage && coverage <= maxCoverage,
		"generation stage replay covers %.2f of Generate's per-packet time, want [%.2f, %.2f]", coverage, minCoverage, maxCoverage)
	return nil
}

// stageTimes are the mean µs per packet of each generation stage.
type stageTimes struct {
	tx, render, cir, transmit, sync, lsTruth, lsPre, align float64
	// renderShare is how many frames Generate renders per packet: each
	// referenced frame once, where the replay renders one per packet.
	renderShare float64
}

// total is the replayed time per packet Generate spends; the CIR runs
// inside transmit.
func (st stageTimes) total() float64 {
	return st.tx + st.render*st.renderShare + st.transmit + st.sync + st.lsTruth + st.lsPre + st.align
}

func replayStages(c *dataset.Campaign, seed uint64) (stageTimes, error) {
	var d struct{ tx, render, cir, transmit, sync, lsTruth, lsPre, align time.Duration }
	cfg := c.Cfg
	mod := phy.NewModulator()
	rx := c.Receiver
	var buf []complex128
	frames := map[int]bool{}
	sync := camera.NewSynchronizer()
	pkts := c.Sets[0].Packets
	for k := range pkts {
		pkt := &pkts[k]
		bodies := pkt.Bodies(cfg)
		f := sync.FrameIndex(float64(k+1) * dataset.PacketInterval)
		for _, lag := range []int{0, 1, 3} { // the frames of the three image lags
			frames[max(f-lag, 0)] = true
		}

		t := time.Now()
		_, wave, _, err := dataset.BuildTx(mod, pkt.SeqNum, cfg.PSDULen)
		if err != nil {
			return stageTimes{}, err
		}
		power := dsp.Power(wave)
		solver, err := rx.GroundTruthSolver(wave)
		if err != nil {
			return stageTimes{}, err
		}
		d.tx += time.Since(t)

		t = time.Now()
		c.Camera.RenderPreprocessedMulti(bodies).NormalizedF32(c.Camera.MaxRange)
		d.render += time.Since(t)

		t = time.Now()
		c.Model.CIRMulti(bodies)
		d.cir += time.Since(t)

		t = time.Now()
		link := channel.NewLink(c.Model, cfg.Imp, rand.New(rand.NewPCG(pkt.LinkSeed, seed)))
		rec := link.TransmitMultiBufPow(wave, power, bodies, buf)
		buf = rec.Waveform
		d.transmit += time.Since(t)

		t = time.Now()
		rxc, _ := rx.CorrectCFOInPlace(rec.Waveform)
		rx.DetectPreamble(rxc)
		d.sync += time.Since(t)

		t = time.Now()
		perfect, err := solver.Estimate(rxc)
		if err != nil {
			return stageTimes{}, err
		}
		d.lsTruth += time.Since(t)

		t = time.Now()
		if _, err := rx.EstimatePreamble(rxc); err != nil {
			return stageTimes{}, err
		}
		d.lsPre += time.Since(t)

		t = time.Now()
		estimate.AlignPhase(perfect, c.RefCIR)
		d.align += time.Since(t)
	}
	n := float64(len(pkts))
	per := func(x time.Duration) float64 { return us(x) / n }
	return stageTimes{
		tx: per(d.tx), render: per(d.render), cir: per(d.cir), transmit: per(d.transmit),
		sync: per(d.sync), lsTruth: per(d.lsTruth), lsPre: per(d.lsPre), align: per(d.align),
		renderShare: float64(len(frames)) / n,
	}, nil
}

// The replay leaves out trajectory planning and the per-set shell, so it
// may cover somewhat less than all of Generate's time.
const (
	minCoverage = 0.8
	maxCoverage = 1.2
)
