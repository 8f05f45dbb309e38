package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vvd/internal/mathx/gemm"
)

// trainer is the batched float32 form of a Network that Fit and Evaluate
// run: each minibatch is one batch-major pass on the GEMM core. A conv
// layer runs forward as im2col + GEMM (the inference engine's fused
// packer), and backward as dW = colsᵀ·dY, db = Σ dY and
// dX = col2im(dY·Wᵀ); dense layers are plain GEMMs over the batch, ReLU
// and pooling element-wise passes. Every activation backward needs stays
// cached, and every activation, gradient and scratch buffer is cut from
// one slab reused across Fits, so a step allocates next to nothing.
//
// The master weights stay float64 in the Network's Params: each step
// converts and repacks them, and the float32 gradients are reduced into
// Param.G in sample order. Tasks fan out one sample each and write only
// that sample's buffers, so the result is the same bits whatever the
// number of goroutines.
type trainer struct {
	ops     []trainOp
	segs    []segment
	batch   int // samples per pass
	workers int // goroutines one pass fans out to
	first   int // first op with parameters: backward stops there

	x32  []float32 // batch input
	dOut []float32 // ∂loss/∂output for the batch
	w32  []float32 // float32 staging of one op's W and Wᵀ
	work []workArena
	slab *[]float32 // the pooled storage every buffer above is cut from
}

// trainOp is one layer of the trainer. Flatten, an identity on the flat
// layout, has none, and a ReLU feeding a pool folds into the pool.
type trainOp struct {
	inferOp               // kind, shapes, GEMM dims, packed W (pb) and float32 bias
	w, b    *Param        // float64 master weights (conv, dense)
	pbT     *gemm.PackedB // Wᵀ packed, for the input gradient
	x, y    []float32     // batch input and output; a ReLU works in place
	part    []float32     // float32 [dW | db] partials, one set per slot
	ones    []float32     // conv: the last [cols | 1] panel's constant tail
	partLen int           // len(W) + len(b)
}

// segment is a run of ops executed together: one dense op over the whole
// batch, or a run of conv, ReLU and pool ops one sample per task.
type segment struct {
	lo, hi int // ops[lo:hi]
	dense  bool
	fanOut bool      // holds a conv: worth spreading over the workers
	grad   []float32 // batch ∂loss/∂(segment output)
}

// workArena is one worker's per-sample scratch.
type workArena struct {
	apack  []float32 // conv A panels for the forward GEMM
	cols   []float32 // [cols | 1] of one sample (or [X | 1] of a batch) in panel layout
	dyp    []float32 // dY in panel layout, when it is not its own
	dcols  []float32 // dY·Wᵀ of one sample, before col2im
	g0, g1 []float32 // per-sample gradient ping-pong inside a segment
}

// trainSlabs keeps the trainer's storage across Fits: a step's buffers
// are a few MB that every Fit of the same network needs again.
var trainSlabs = sync.Pool{New: func() any { return new([]float32) }}

// newTrainer builds the batched form of net for passes of up to batch
// samples on up to workers goroutines.
func newTrainer(net *Network, batch, workers int) (*trainer, error) {
	t := &trainer{batch: batch, workers: max(1, min(workers, batch))}
	shape := net.In
	for i, l := range net.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.name(), err)
		}
		op := trainOp{inferOp: inferOp{in: shape, out: out}}
		switch l := l.(type) {
		case *Conv2D:
			op.kind, op.kh, op.kw = opConv, l.KH, l.KW
			op.k, op.n = l.KH*l.KW*shape.C, l.Filters
			op.w, op.b = l.w, l.b
			if op.k > gemm.MaxPrepackedK {
				return nil, fmt.Errorf("nn: layer %d (conv2d): patch size %d above the GEMM limit %d", i, op.k, gemm.MaxPrepackedK)
			}
		case *Dense:
			op.kind, op.k, op.n = opDense, shape.C, l.Units
			op.w, op.b = l.w, l.b
		case *ReLU:
			op.kind = opReLU
		case *Pool2D:
			op.kind, op.poolKind = opPool, l.Kind
			// A ReLU right before a pool fuses into it, as in the engine:
			// forward pools the clamped values, backward masks by sign.
			if last := len(t.ops) - 1; last >= 0 && t.ops[last].kind == opReLU {
				t.ops = t.ops[:last]
				op.preReLU = true
			}
		case *Flatten:
			shape = out
			continue
		default:
			return nil, fmt.Errorf("nn: layer %d (%s) has no training kernel", i, l.name())
		}
		t.ops = append(t.ops, op)
		shape = out
	}
	t.first = len(t.ops)
	for i := len(t.ops) - 1; i >= 0; i-- {
		if t.ops[i].w != nil {
			t.first = i
		}
	}

	// Lay out every buffer, then cut them all from one pooled slab.
	type req struct {
		dst *[]float32
		n   int
	}
	var reqs []req
	total := 0
	need := func(dst *[]float32, n int) {
		reqs = append(reqs, req{dst, n})
		total += n
	}
	need(&t.x32, batch*net.In.Size())
	need(&t.dOut, batch*net.Out.Size())
	var apackLen, colsLen, dypLen, dcolsLen, gLen, wLen int
	for i := range t.ops {
		op := &t.ops[i]
		if op.kind != opReLU {
			need(&op.y, batch*op.out.Size())
		}
		if op.w == nil {
			continue
		}
		op.partLen = len(op.w.W) + len(op.b.W)
		slots, m := 1, batch
		if op.kind == opConv {
			slots, m = batch, op.out.H*op.out.W
			apackLen = max(apackLen, gemm.PackedALen(m, op.k))
			dcolsLen = max(dcolsLen, m*op.k)
			op.kOff, op.ones = patchOffsets(&op.inferOp)
		}
		colsLen = max(colsLen, gemm.PanelLen(m, op.k+1))
		dypLen = max(dypLen, gemm.PanelLen(m, op.n))
		need(&op.part, slots*op.partLen)
		wLen = max(wLen, 2*len(op.w.W))
		op.bias = make([]float32, len(op.b.W))
		op.pb = gemm.PackB(op.k, op.n, make([]float32, op.k*op.n))
		if i > t.first {
			op.pbT = gemm.PackB(op.n, op.k, make([]float32, op.k*op.n))
		}
	}
	need(&t.w32, wLen)
	for lo := 0; lo < len(t.ops); {
		sg := segment{lo: lo, hi: lo + 1, dense: t.ops[lo].kind == opDense}
		for !sg.dense && sg.hi < len(t.ops) && t.ops[sg.hi].kind != opDense {
			sg.hi++
		}
		for _, op := range t.ops[sg.lo:sg.hi] {
			sg.fanOut = sg.fanOut || op.kind == opConv
			if !sg.dense {
				gLen = max(gLen, op.in.Size())
			}
		}
		t.segs = append(t.segs, sg)
		lo = sg.hi
	}
	for k := range t.segs {
		if k == len(t.segs)-1 {
			continue // the last segment's output gradient is dOut
		}
		sg := &t.segs[k]
		need(&sg.grad, batch*t.ops[sg.hi-1].out.Size())
	}
	t.work = make([]workArena, t.workers)
	for w := range t.work {
		wa := &t.work[w]
		need(&wa.apack, apackLen)
		need(&wa.cols, colsLen)
		need(&wa.dyp, dypLen)
		need(&wa.dcols, dcolsLen)
		need(&wa.g0, gLen)
		need(&wa.g1, gLen)
	}
	t.slab = trainSlabs.Get().(*[]float32)
	*t.slab = growF32(*t.slab, total)
	off := 0
	for _, r := range reqs {
		*r.dst = (*t.slab)[off : off+r.n : off+r.n]
		off += r.n
	}
	if n := len(t.segs); n > 0 {
		t.segs[n-1].grad = t.dOut
	}
	x := t.x32
	for i := range t.ops {
		op := &t.ops[i]
		op.x = x
		if op.kind == opReLU {
			op.y = x
		}
		x = op.y
	}
	return t, nil
}

// release returns the trainer's storage to the pool; t is dead after.
func (t *trainer) release() {
	trainSlabs.Put(t.slab)
	t.slab = nil
}

// out returns the batch output of the last forward.
func (t *trainer) out() []float32 {
	if len(t.ops) == 0 {
		return t.x32
	}
	return t.ops[len(t.ops)-1].y
}

// loadWeights converts the float64 master weights to float32 and repacks
// them (Wᵀ too where an input gradient is needed).
func (t *trainer) loadWeights() {
	for i := range t.ops {
		op := &t.ops[i]
		if op.w == nil {
			continue
		}
		kn := op.k * op.n
		w, wT := t.w32[:kn], t.w32[kn:2*kn]
		for j, v := range op.w.W {
			w[j] = float32(v)
		}
		for j, v := range op.b.W {
			op.bias[j] = float32(v)
		}
		op.pb.Repack(w)
		if op.pbT == nil {
			continue
		}
		for p := 0; p < op.k; p++ {
			for j, v := range w[p*op.n : (p+1)*op.n] {
				wT[j*op.k+p] = v
			}
		}
		op.pbT.Repack(wT)
	}
}

// each calls f(s, w) for every sample s < n, on up to t.workers
// goroutines when fanOut is set; w indexes the calling worker's scratch.
// Each call writes only sample s's buffers, so the split cannot change
// the result.
func (t *trainer) each(fanOut bool, n int, f func(s, w int)) {
	workers := min(t.workers, n)
	if !fanOut || workers <= 1 {
		for s := 0; s < n; s++ {
			f(s, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := int(next.Add(1) - 1); s < n; s = int(next.Add(1) - 1) {
				f(s, w)
			}
		}()
	}
	wg.Wait()
}

// load converts sample s's input into the batch input buffer.
func (t *trainer) load(samples []Sample, s int) {
	size := len(t.x32) / t.batch
	dst := t.x32[s*size : (s+1)*size]
	for i, v := range samples[s].X {
		dst[i] = float32(v)
	}
}

// forward runs samples through the network, leaving every op's batch
// output cached. The caller has loaded the weights.
func (t *trainer) forward(samples []Sample) {
	n := len(samples)
	if len(t.segs) == 0 || t.segs[0].dense {
		for s := range samples {
			t.load(samples, s)
		}
	}
	for _, sg := range t.segs {
		if sg.dense {
			t.ops[sg.lo].forwardDense(n)
			continue
		}
		t.each(sg.fanOut, n, func(s, w int) {
			if sg.lo == 0 {
				t.load(samples, s)
			}
			for i := sg.lo; i < sg.hi; i++ {
				op := &t.ops[i]
				op.forwardSample(sample(op.x, op.in, s), sample(op.y, op.out, s), &t.work[w])
			}
		})
	}
}

// backward propagates dOut through the batch, leaving each weighted op's
// float32 gradient partials in its part.
func (t *trainer) backward(n int) {
	for k := len(t.segs) - 1; k >= 0; k-- {
		sg := t.segs[k]
		if sg.hi <= t.first {
			return
		}
		var dIn []float32 // batch ∂loss/∂(segment input), when needed
		if sg.lo > t.first {
			dIn = t.segs[k-1].grad
		}
		if sg.dense {
			t.ops[sg.lo].backwardDense(n, sg.grad, dIn, &t.work[0])
			continue
		}
		out := t.ops[sg.hi-1].out
		t.each(sg.fanOut, n, func(s, w int) {
			pingPong := [2][]float32{t.work[w].g0, t.work[w].g1}
			next := 0
			dy := sample(sg.grad, out, s)
			for i := sg.hi - 1; i >= sg.lo && i >= t.first; i-- {
				op := &t.ops[i]
				var dx []float32 // nil at the first weighted op: nothing below needs it
				switch {
				case i == sg.lo && i > t.first:
					dx = sample(dIn, op.in, s)
				case i > t.first:
					dx = pingPong[next][:op.in.Size()]
					next ^= 1
				}
				op.backwardSample(s, sample(op.x, op.in, s), sample(op.y, op.out, s), dy, dx, &t.work[w])
				dy = dx
			}
		})
	}
}

// reduce adds the float32 gradient partials into the float64 Param.G,
// slot by slot in sample order.
func (t *trainer) reduce(n int) {
	for i := range t.ops {
		op := &t.ops[i]
		if op.w == nil {
			continue
		}
		slots := 1
		if op.kind == opConv {
			slots = n
		}
		wn := len(op.w.G)
		for s := 0; s < slots; s++ {
			part := op.part[s*op.partLen : (s+1)*op.partLen]
			for j, g := range part[:wn] {
				op.w.G[j] += float64(g)
			}
			for j, g := range part[wn:] {
				op.b.G[j] += float64(g)
			}
		}
	}
}

// loss returns the summed per-sample MSE of the last forward against the
// samples' targets and, when grad is non-nil, fills it with ∂loss/∂out
// per sample (the per-sample MSE gradient, as MSE computes it).
func (t *trainer) loss(samples []Sample, grad []float32) float64 {
	out := t.out()
	size := len(out) / t.batch
	inv := 2 / float64(size)
	var total float64
	for s, smp := range samples {
		o := out[s*size : (s+1)*size]
		var sum float64
		for i, y := range smp.Y {
			d := float64(o[i]) - y
			sum += d * d
			if grad != nil {
				grad[s*size+i] = float32(inv * d)
			}
		}
		total += sum / float64(size)
	}
	return total
}

// step runs one minibatch forward and backward, accumulates its gradient
// into Param.G (summed over the samples, like per-sample Backward calls)
// and returns the summed sample loss.
func (t *trainer) step(samples []Sample) float64 {
	t.loadWeights()
	t.forward(samples)
	loss := t.loss(samples, t.dOut)
	t.backward(len(samples))
	t.reduce(len(samples))
	return loss
}

// evaluate returns the mean sample MSE over data (at least one sample) on
// the batched forward.
func (t *trainer) evaluate(net *Network, data []Sample) (float64, error) {
	if err := checkSamples(net, data); err != nil {
		return 0, err
	}
	t.loadWeights()
	var sum float64
	for lo := 0; lo < len(data); lo += t.batch {
		chunk := data[lo:min(lo+t.batch, len(data))]
		t.forward(chunk)
		sum += t.loss(chunk, nil)
	}
	return sum / float64(len(data)), nil
}

// checkSamples rejects samples whose shapes do not fit net.
func checkSamples(net *Network, data []Sample) error {
	for _, s := range data {
		if len(s.X) != net.In.Size() || len(s.Y) != net.Out.Size() {
			return fmt.Errorf("nn: sample shape mismatch (x %d want %d, y %d want %d)",
				len(s.X), net.In.Size(), len(s.Y), net.Out.Size())
		}
	}
	return nil
}

// sample returns sample s's slice of a batch buffer of shape-sized samples.
func sample(buf []float32, shape Shape, s int) []float32 {
	size := shape.Size()
	return buf[s*size : (s+1)*size]
}

// ---------- per-op kernels ----------

func (op *trainOp) forwardSample(x, y []float32, wa *workArena) {
	switch op.kind {
	case opConv:
		m := op.out.H * op.out.W
		packConvA(wa.apack, x, &op.inferOp, 1)
		fillBias(y, op.bias, m, op.n)
		gemm.SgemmPrepackedSeq(m, wa.apack, op.pb, y, op.n)
	case opReLU:
		for j, v := range y {
			y[j] = relu32(v)
		}
	case opPool:
		poolF32(&op.inferOp, 1, x, y)
	}
}

func (op *trainOp) forwardDense(n int) {
	fillBias(op.y, op.bias, n, op.n)
	gemm.SgemmPackedSeq(n, op.x, op.k, op.pb, op.y, op.n)
}

// backwardSample takes sample s's ∂loss/∂y to ∂loss/∂x (skipped when dx
// is nil), writing a conv's weight-gradient partials to slot s.
func (op *trainOp) backwardSample(s int, x, y, dy, dx []float32, wa *workArena) {
	switch op.kind {
	case opReLU:
		for j, v := range y[:len(dx)] {
			dx[j] = ifPositive(v, dy[j])
		}
	case opPool:
		poolBackward(&op.inferOp, x, dy, dx)
	case opConv:
		m := op.out.H * op.out.W
		im2colPanels(wa.cols, x, op.ones, &op.inferOp)
		op.weightGrads(op.part[s*op.partLen:(s+1)*op.partLen], m, wa.cols, dy, wa)
		if dx == nil {
			return
		}
		dcols := wa.dcols[:m*op.k]
		clear(dcols)
		gemm.SgemmPackedSeq(m, dy, op.n, op.pbT, dcols, op.k)
		col2im(dx, dcols, &op.inferOp)
	}
}

func (op *trainOp) backwardDense(n int, dy, dx []float32, wa *workArena) {
	gemm.PackPanels(wa.cols, op.x, op.k, n, op.k)
	setOnes(wa.cols, n, op.k)
	op.weightGrads(op.part, n, wa.cols, dy, wa)
	if dx == nil {
		return
	}
	clear(dx[:n*op.k])
	gemm.SgemmPackedSeq(n, dy, op.n, op.pbT, dx, op.k)
}

// weightGrads writes [dW | db] = [X | 1]ᵀ·dY over m rows to part: xp holds
// the m×(K+1) matrix [X | 1] in panel layout, so the bias gradient Σ dY
// is the product's last row.
func (op *trainOp) weightGrads(part []float32, m int, xp, dy []float32, wa *workArena) {
	dyp := dy
	if op.n != gemm.NR {
		dyp = wa.dyp[:gemm.PanelLen(m, op.n)]
		gemm.PackPanels(dyp, dy, op.n, m, op.n)
	}
	clear(part)
	gemm.SgemmTN(op.k+1, op.n, m, xp, dyp, part, op.n)
}

// setOnes sets column col of an m-row panel-layout matrix to 1, clearing
// the panel first when col opens it.
func setOnes(panels []float32, m, col int) {
	p := panels[col/gemm.NR*m*gemm.NR:][:m*gemm.NR]
	lane := col % gemm.NR
	if lane == 0 {
		clear(p)
	}
	for r := 0; r < m; r++ {
		p[r*gemm.NR+lane] = 1
	}
}

// im2colPanels writes one sample's patch matrix with a trailing ones
// column, [cols | 1], in panel layout: row y·OW+x holds the KH·KW·C patch
// under output position (y, x) in the weights' [ky][kx][c] order, and
// op.kOff[q] locates patch element q relative to the patch's first input.
// It fills one panel at a time, so its writes are sequential. A panel of
// NR channels of one kernel tap is NR contiguous input floats per row —
// one copy per output row when C == NR. ones is the last panel's constant
// tail: the 1 at column K, zeros after it.
func im2colPanels(dst, x, ones []float32, op *inferOp) {
	const nr = gemm.NR
	oh, ow := op.out.H, op.out.W
	iw, ic := op.in.W, op.in.C
	m := oh * ow
	for q0 := 0; q0 <= op.k; q0 += nr {
		p := dst[q0*m : (q0+nr)*m]
		if q0+nr <= op.k && ic%nr == 0 {
			off := op.kOff[q0]
			for y := 0; y < oh; y++ {
				src := x[y*iw*ic+off:]
				row := p[y*ow*nr : (y+1)*ow*nr]
				if ic == nr {
					copy(row, src[:ow*nr])
					continue
				}
				for xx := 0; xx < ow; xx++ {
					copy8(row[xx*nr:], src[xx*ic:])
				}
			}
			continue
		}
		r := 0
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				base := (y*iw + xx) * ic
				d := p[r*nr:][:nr:nr]
				r++
				if q0+nr <= op.k {
					o := op.kOff[q0:][:nr:nr]
					d[0], d[1], d[2], d[3] = x[base+o[0]], x[base+o[1]], x[base+o[2]], x[base+o[3]]
					d[4], d[5], d[6], d[7] = x[base+o[4]], x[base+o[5]], x[base+o[6]], x[base+o[7]]
					continue
				}
				copy8(d, ones)
				for j, o := range op.kOff[q0:] {
					d[j] = x[base+o]
				}
			}
		}
	}
}

// patchOffsets returns, for a conv, the input offset of each patch
// element relative to the patch's first input (kOff) and the constant
// tail of the last [cols | 1] panel: a 1 at column K, zeros after it.
func patchOffsets(op *inferOp) (kOff []int, ones []float32) {
	kOff = make([]int, 0, op.k)
	for ky := 0; ky < op.kh; ky++ {
		for kx := 0; kx < op.kw; kx++ {
			for c := 0; c < op.in.C; c++ {
				kOff = append(kOff, (ky*op.in.W+kx)*op.in.C+c)
			}
		}
	}
	ones = make([]float32, gemm.NR)
	ones[op.k%gemm.NR] = 1
	return kOff, ones
}

// copy8 copies NR floats as plain moves (a copy call costs more here).
func copy8(dst, src []float32) {
	d, s := dst[:8:8], src[:8:8]
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
}

// col2im is im2col's adjoint: it sets dx to the scatter-add of the
// row-major patch gradients dcols back onto the input positions.
func col2im(dx, dcols []float32, op *inferOp) {
	clear(dx)
	iw, ic := op.in.W, op.in.C
	seg := op.kw * ic
	r := 0
	for y := 0; y < op.out.H; y++ {
		for xx := 0; xx < op.out.W; xx++ {
			row := dcols[r*op.k : (r+1)*op.k]
			for ky := 0; ky < op.kh; ky++ {
				d := dx[((y+ky)*iw+xx)*ic:][:seg]
				g := row[ky*seg : (ky+1)*seg]
				if seg%gemm.NR == 0 {
					for j := 0; j < seg; j += gemm.NR {
						add8(d[j:], g[j:])
					}
					continue
				}
				for j, v := range g {
					d[j] += v
				}
			}
			r++
		}
	}
}

// add8 adds NR floats of src into dst.
func add8(dst, src []float32) {
	d, s := dst[:8:8], src[:8:8]
	d[0] += s[0]
	d[1] += s[1]
	d[2] += s[2]
	d[3] += s[3]
	d[4] += s[4]
	d[5] += s[5]
	d[6] += s[6]
	d[7] += s[7]
}

// relu32 is max(v, 0) without a data-dependent branch: conv outputs
// change sign at random, and a mispredicted branch per element costs more
// than the arithmetic.
func relu32(v float32) float32 {
	b := math.Float32bits(v)
	return math.Float32frombits(b &^ uint32(int32(b)>>31))
}

// ifPositive returns g where v > 0 and 0 elsewhere, without a branch.
func ifPositive(v, g float32) float32 {
	keep := uint32(-int64(int32(math.Float32bits(v))) >> 63)
	return math.Float32frombits(math.Float32bits(g) & keep)
}

// poolBackward routes one sample's pooled gradient dy back to dx: a
// quarter to each input of an average window, all of it to the first
// maximum of a max window (the reference's tie order); inputs in no
// window (a trailing odd row or column) get zero. With a fused ReLU (x
// holds its input) only positive inputs pass gradient.
func poolBackward(op *inferOp, x, dy, dx []float32) {
	clear(dx)
	oh, ow, c := op.out.H, op.out.W, op.out.C
	iw := op.in.W
	for y := 0; y < oh; y++ {
		for xx := 0; xx < ow; xx++ {
			i00 := (2*y*iw + 2*xx) * c
			i10 := ((2*y+1)*iw + 2*xx) * c
			o := (y*ow + xx) * c
			for ch := 0; ch < c; ch++ {
				g := dy[o+ch]
				if op.poolKind == AvgPool {
					q := g * 0.25
					if op.preReLU {
						dx[i00+ch], dx[i00+c+ch] = ifPositive(x[i00+ch], q), ifPositive(x[i00+c+ch], q)
						dx[i10+ch], dx[i10+c+ch] = ifPositive(x[i10+ch], q), ifPositive(x[i10+c+ch], q)
						continue
					}
					dx[i00+ch], dx[i00+c+ch] = q, q
					dx[i10+ch], dx[i10+c+ch] = q, q
					continue
				}
				best, at := x[i00+ch], i00+ch
				if v := x[i00+c+ch]; v > best {
					best, at = v, i00+c+ch
				}
				if v := x[i10+ch]; v > best {
					best, at = v, i10+ch
				}
				if v := x[i10+c+ch]; v > best {
					best, at = v, i10+c+ch
				}
				if op.preReLU {
					// max(relu(·)) == relu(max(·)): the first maximum
					// takes the gradient if it is positive
					g = ifPositive(best, g)
				}
				dx[at] = g
			}
		}
	}
}
