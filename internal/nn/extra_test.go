package nn

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

func TestPoolOddDimensionsFloor(t *testing.T) {
	// 5×7 input pools to 2×3 (floor division): the odd row/column is
	// dropped, matching Keras' default.
	p := NewPool2D(AvgPool)
	out, err := p.OutShape(Shape{5, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{2, 3, 2}) {
		t.Fatalf("out = %v want 2x3x2", out)
	}
	in := make([]float64, 5*7*2)
	for i := range in {
		in[i] = float64(i)
	}
	res := p.Forward(in)
	if len(res) != out.Size() {
		t.Fatalf("forward len = %d want %d", len(res), out.Size())
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 2}, rand.New(rand.NewPCG(1, 2)), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(net, nil); err == nil {
		t.Fatal("empty evaluation set accepted")
	}
}

func TestConvMultiChannelShape(t *testing.T) {
	net, err := NewNetwork(Shape{8, 8, 3}, rand.New(rand.NewPCG(3, 4)),
		NewConv2D(3, 3, 5), NewConv2D(3, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if net.Out != (Shape{4, 4, 2}) {
		t.Fatalf("out = %v", net.Out)
	}
	x := make([]float64, 8*8*3)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 32 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestGradCheckMultiChannelConvChain(t *testing.T) {
	// Two stacked convolutions: gradient flow through channel mixing.
	net, err := NewNetwork(Shape{6, 6, 2}, rand.New(rand.NewPCG(5, 6)),
		NewConv2D(3, 3, 3), NewReLU(), NewConv2D(2, 2, 2), NewFlatten(), NewDense(2))
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, net, 72, 2, 60)
}

func TestNadamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w−3)² directly through the optimizer interface.
	p := newParam(1)
	o := NewNadam()
	o.LR = 0.05
	for i := 0; i < 2000; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		o.Step([]*Param{p}, 1)
	}
	if math.Abs(p.W[0]-3) > 0.05 {
		t.Fatalf("w = %v want ≈ 3", p.W[0])
	}
}

func TestWorkerCountsEquivalent(t *testing.T) {
	// Training must give the same weights, bit for bit, whatever the
	// goroutine fan-out: every task writes only its own sample's buffers
	// and gradients are reduced in sample order. A conv+pool+dense net
	// with a partial last batch, at Workers 1 and 3 (and the GOMAXPROCS
	// default) and GOMAXPROCS 1, 2 and 4.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := func(workers int) []float64 {
		net, err := NewNetwork(Shape{10, 12, 1}, rand.New(rand.NewPCG(7, 8)),
			NewConv2D(3, 3, 4), NewReLU(), NewPool2D(MaxPool),
			NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool),
			NewFlatten(), NewDense(6), NewReLU(), NewDense(2))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]Sample, 23)
		drng := rand.New(rand.NewPCG(9, 10))
		for i := range data {
			x := randInput(drng, 120)
			data[i] = Sample{X: x, Y: []float64{x[0] - x[2], x[50]}}
		}
		cfg := TrainConfig{Epochs: 3, BatchSize: 5, Workers: workers, Seed: 2}
		if _, err := Fit(net, NewNadam(), data[:18], data[18:], cfg); err != nil {
			t.Fatal(err)
		}
		var w []float64
		for _, p := range net.Params() {
			w = append(w, p.W...)
		}
		return w
	}
	var want []float64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 3} {
			got := train(workers)
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] { //vvdlint:bitexact -- training is bitwise deterministic by contract
					t.Fatalf("GOMAXPROCS %d, Workers %d: weight %d = %v, want %v", procs, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSaveRejectsAfterCorruptStream(t *testing.T) {
	net, err := NewNetwork(Shape{1, 1, 2}, rand.New(rand.NewPCG(1, 1)), NewDense(1))
	if err != nil {
		t.Fatal(err)
	}
	w := &failWriter{failAfter: 3}
	if err := net.Save(w); err == nil {
		t.Fatal("write failure not propagated")
	}
}

type failWriter struct {
	n         int
	failAfter int
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > f.failAfter {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }
