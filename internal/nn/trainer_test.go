package nn

import (
	"math"
	"math/rand/v2"
	"testing"
)

// scaledLayers is the scaled Fig. 8 stack the experiments train (filters
// 8/8/16/16, hidden dense 64, 22 outputs) with the given pooling.
func scaledLayers(pool PoolKind) []Layer {
	return []Layer{
		NewConv2D(3, 3, 8), NewReLU(), NewPool2D(pool),
		NewConv2D(3, 3, 8), NewReLU(), NewPool2D(pool),
		NewConv2D(3, 3, 16), NewReLU(), NewPool2D(pool),
		NewConv2D(3, 3, 16), NewReLU(),
		NewFlatten(), NewDense(64), NewReLU(), NewDense(22),
	}
}

func depthSamples(rng *rand.Rand, n int, in Shape, outSize int) []Sample {
	data := make([]Sample, n)
	for i := range data {
		x := make([]float64, in.Size())
		for j := range x {
			x[j] = rng.Float64()*4 + 0.5 // depth-image-like
		}
		y := make([]float64, outSize)
		for j := range y {
			y[j] = rng.NormFloat64() * 0.1
		}
		data[i] = Sample{X: x, Y: y}
	}
	return data
}

// TestBatchedStepMatchesReference pins one batched float32 training step
// against the float64 reference: per parameter tensor, the relative L2
// error of Param.G against the sum of per-sample Network.Backward
// gradients over the same minibatch, on the scaled arch with average and
// max pooling, for a full batch and a partial last batch. The batched
// validation forward must match Network.Forward's mean MSE within float32
// rounding.
func TestBatchedStepMatchesReference(t *testing.T) {
	// Measured with the AVX2+FMA and with the portable kernels: at most
	// 4.0e-7 per gradient tensor and 1.5e-7 on a loss. The bounds leave
	// about 5× headroom; do not widen them.
	const maxGradRelErr = 2e-6
	const maxLossRelErr = 1e-6
	in := Shape{H: 50, W: 90, C: 1}
	for _, pool := range []PoolKind{AvgPool, MaxPool} {
		net, err := NewNetwork(in, rand.New(rand.NewPCG(11, 12)), scaledLayers(pool)...)
		if err != nil {
			t.Fatal(err)
		}
		data := depthSamples(rand.New(rand.NewPCG(13, 14)), 16, in, net.Out.Size())
		for _, n := range []int{16, 5} { // a full batch and a partial last one
			batch := data[:n]
			net.ZeroGrad()
			var wantLoss float64
			grad := make([]float64, net.Out.Size())
			for _, s := range batch {
				out, err := net.Forward(s.X)
				if err != nil {
					t.Fatal(err)
				}
				l, err := MSE(out, s.Y, grad)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss += l
				net.Backward(grad)
			}
			var want [][]float64
			for _, p := range net.Params() {
				want = append(want, append([]float64(nil), p.G...))
			}

			net.ZeroGrad()
			tr, err := newTrainer(net, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			gotLoss := tr.step(batch)
			tr.release()
			for i, p := range net.Params() {
				var diff, norm float64
				for j, g := range p.G {
					d := g - want[i][j]
					diff += d * d
					norm += want[i][j] * want[i][j]
				}
				rel := math.Sqrt(diff / norm)
				t.Logf("pool %d, batch %d, param %d (%d values): relative L2 error %.2e", pool, n, i, len(p.G), rel)
				if rel > maxGradRelErr {
					t.Errorf("pool %d, batch %d, param %d: relative L2 gradient error %.2e > %.0e", pool, n, i, rel, maxGradRelErr)
				}
			}
			rel := math.Abs(gotLoss-wantLoss) / wantLoss
			t.Logf("pool %d, batch %d: loss relative error %.2e", pool, n, rel)
			if rel > maxLossRelErr {
				t.Errorf("pool %d, batch %d: loss %v, reference %v (relative error %.2e)", pool, n, gotLoss, wantLoss, rel)
			}
		}

		val := depthSamples(rand.New(rand.NewPCG(15, 16)), 21, in, net.Out.Size())
		var wantVal float64
		for _, s := range val {
			out, err := net.Forward(s.X)
			if err != nil {
				t.Fatal(err)
			}
			l, err := MSE(out, s.Y, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantVal += l / float64(len(val))
		}
		gotVal, err := Evaluate(net, val)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(gotVal-wantVal) / wantVal
		t.Logf("pool %d: validation loss relative error %.2e", pool, rel)
		if rel > maxLossRelErr {
			t.Errorf("pool %d: validation loss %v, reference %v (relative error %.2e)", pool, gotVal, wantVal, rel)
		}
	}
}
