package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// inferArches is the shape zoo for engine parity: the paper's Fig. 8
// stack (odd pooling inputs included), the scaled variant, and small
// awkward stacks exercising every layer kind and ragged GEMM edge.
func inferArches() map[string]func() (Shape, []Layer) {
	return map[string]func() (Shape, []Layer){
		"paper-like": func() (Shape, []Layer) {
			return Shape{H: 50, W: 90, C: 1}, []Layer{
				NewConv2D(6, 6, 4), NewReLU(), NewPool2D(AvgPool),
				NewConv2D(3, 3, 4), NewReLU(), NewPool2D(AvgPool), // 22x42 -> conv 20x40 -> pool 10x20
				NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool), // 8x18 -> 4x9: odd width pooled
				NewFlatten(), NewDense(22),
			}
		},
		"odd-pools": func() (Shape, []Layer) {
			return Shape{H: 13, W: 23, C: 1}, []Layer{
				NewConv2D(3, 3, 8), NewReLU(), NewPool2D(AvgPool), // 11x21 -> 5x10
				NewConv2D(2, 2, 16), NewReLU(), NewPool2D(MaxPool), // 4x9 -> 2x4
				NewFlatten(), NewDense(33), NewReLU(), NewDense(7),
			}
		},
		"dense-only": func() (Shape, []Layer) {
			return Shape{H: 1, W: 1, C: 129}, []Layer{
				NewDense(65), NewReLU(), NewDense(9),
			}
		},
		"single-conv": func() (Shape, []Layer) {
			return Shape{H: 9, W: 9, C: 3}, []Layer{
				NewConv2D(4, 4, 5), NewFlatten(), NewDense(3),
			}
		},
	}
}

func randomNet(t *testing.T, build func() (Shape, []Layer), seed uint64) *Network {
	t.Helper()
	in, layers := build()
	net, err := NewNetwork(in, rand.New(rand.NewPCG(seed, 99)), layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomInput(rng *rand.Rand, n int, nonneg bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		if nonneg {
			x[i] = rng.Float64() * 4 // depth-image-like
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestInferenceEngineMatchesForward pins the compiled float32 engine
// against the float64 reference Forward on random weights and inputs:
// |Δ| ≤ 1e-4 + 1e-4·|reference| element-wise.
func TestInferenceEngineMatchesForward(t *testing.T) {
	const tolAbs, tolRel = 1e-4, 1e-4
	for name, build := range inferArches() {
		t.Run(name, func(t *testing.T) {
			net := randomNet(t, build, 17)
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(23, 5))
			for trial := 0; trial < 8; trial++ {
				in := randomInput(rng, net.In.Size(), trial%2 == 0)
				want, err := net.Forward(in)
				if err != nil {
					t.Fatal(err)
				}
				in32 := make([]float32, len(in))
				for i, v := range in {
					in32[i] = float32(v)
				}
				outs, err := eng.ForwardBatchF32([][]float32{in32})
				if err != nil {
					t.Fatal(err)
				}
				got := outs[0]
				if len(got) != len(want) {
					t.Fatalf("output size %d, want %d", len(got), len(want))
				}
				for i := range got {
					if diff := math.Abs(float64(got[i]) - want[i]); diff > tolAbs+tolRel*math.Abs(want[i]) {
						t.Fatalf("trial %d out[%d]=%g, reference %g (|Δ|=%g)", trial, i, got[i], want[i], diff)
					}
				}
			}
		})
	}
}

// TestInferenceEngineBatchBitwise: a batched engine forward must equal
// the per-sample engine forward bit for bit — row results are
// independent of the batch they ride in (GEMM tiling is row-disjoint).
func TestInferenceEngineBatchBitwise(t *testing.T) {
	for name, build := range inferArches() {
		t.Run(name, func(t *testing.T) {
			net := randomNet(t, build, 31)
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 11))
			ins := make([][]float32, 13)
			for s := range ins {
				ins[s] = make([]float32, net.In.Size())
				for i := range ins[s] {
					ins[s][i] = float32(rng.NormFloat64())
				}
			}
			batch, err := eng.ForwardBatchF32(ins)
			if err != nil {
				t.Fatal(err)
			}
			for s := range ins {
				single, err := eng.ForwardBatchF32(ins[s : s+1])
				if err != nil {
					t.Fatal(err)
				}
				for i := range single[0] {
					if batch[s][i] != single[0][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
						t.Fatalf("sample %d out[%d]: batch %g != single %g", s, i, batch[s][i], single[0][i])
					}
				}
			}
		})
	}
}

// TestPool2DOddInput pins the defined odd-dimension semantics: output is
// ⌊H/2⌋×⌊W/2⌋ and the trailing row/column influence nothing.
func TestPool2DOddInput(t *testing.T) {
	p := NewPool2D(AvgPool)
	out, err := p.OutShape(Shape{H: 3, W: 5, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{H: 1, W: 2, C: 1}) {
		t.Fatalf("odd pool out shape %v", out)
	}
	in := []float64{
		1, 2, 3, 4, 100,
		5, 6, 7, 8, 100,
		100, 100, 100, 100, 100, // trailing row: must be ignored
	}
	got := p.Forward(in)
	want := []float64{(1 + 2 + 5 + 6) / 4.0, (3 + 4 + 7 + 8) / 4.0}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
		t.Fatalf("odd pool forward %v, want %v", got, want)
	}
}

// TestInferenceEngineInt8 verifies the quantized path end to end:
// calibration is required, and once enabled the int8 outputs track the
// float32 engine within the pinned per-element budget for 7-bit
// symmetric quantization.
func TestInferenceEngineInt8(t *testing.T) {
	net := randomNet(t, inferArches()["paper-like"], 41)
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableInt8(); err == nil {
		t.Fatal("EnableInt8 must fail before calibration")
	}
	rng := rand.New(rand.NewPCG(6, 28))
	calib := make([][]float32, 16)
	for s := range calib {
		calib[s] = make([]float32, net.In.Size())
		for i := range calib[s] {
			calib[s][i] = float32(rng.Float64() * 4)
		}
	}
	if _, err := eng.Calibrate(calib); err != nil {
		t.Fatal(err)
	}
	if got := eng.CalibrationFrames(); got != 16 {
		t.Fatalf("CalibrationFrames = %d, want 16", got)
	}
	if eng.Mode() != "float32" {
		t.Fatalf("mode before EnableInt8 = %q", eng.Mode())
	}
	wantOuts, err := eng.ForwardBatchF32(calib)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	if eng.Mode() != "int8" || !eng.Quantized() {
		t.Fatalf("mode after EnableInt8 = %q", eng.Mode())
	}
	gotOuts, err := eng.ForwardBatchF32(calib)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq, sumRef float64
	for s := range wantOuts {
		for i := range wantOuts[s] {
			d := float64(gotOuts[s][i] - wantOuts[s][i])
			sumSq += d * d
			sumRef += float64(wantOuts[s][i]) * float64(wantOuts[s][i])
		}
	}
	if sumRef == 0 {
		t.Fatal("degenerate reference outputs")
	}
	// Pinned budget: relative quantization MSE below 1% of signal power.
	if rel := sumSq / sumRef; rel > 0.01 {
		t.Fatalf("int8 relative MSE %.4f exceeds 0.01 budget", rel)
	}
}

// TestInferenceEngineForwardBatchInto pins the zero-copy entry point's
// validation and output placement.
func TestInferenceEngineForwardBatchInto(t *testing.T) {
	net := randomNet(t, inferArches()["single-conv"], 8)
	eng, err := NewInferenceEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 1))
	ins := [][]float32{make([]float32, net.In.Size())}
	for i := range ins[0] {
		ins[0][i] = float32(rng.NormFloat64())
	}
	if err := eng.ForwardBatchF32Into(ins, make([][]float32, 2)); err == nil {
		t.Fatal("mismatched batch sizes must error")
	}
	if err := eng.ForwardBatchF32Into(ins, [][]float32{make([]float32, 1)}); err == nil {
		t.Fatal("undersized output must error")
	}
	// Rejected batches are validated before any sample runs: the outputs
	// keep their sentinel values.
	const sentinel = float32(-7)
	filled := func(n int) [][]float32 {
		outs := make([][]float32, n)
		for s := range outs {
			outs[s] = make([]float32, net.Out.Size())
			for i := range outs[s] {
				outs[s][i] = sentinel
			}
		}
		return outs
	}
	for name, bad := range map[string][]float32{
		"wrong-size input": make([]float32, net.In.Size()+1),
		"nil sample":       nil,
	} {
		outs := filled(2)
		if err := eng.ForwardBatchF32Into([][]float32{ins[0], bad}, outs); err == nil {
			t.Fatalf("%s must error", name)
		}
		for s := range outs {
			for i, v := range outs[s] {
				if v != sentinel { //vvdlint:bitexact -- sentinel must survive untouched
					t.Fatalf("%s: out[%d][%d]=%g written by a rejected batch", name, s, i, v)
				}
			}
		}
	}
	if err := eng.ForwardBatchF32Into(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if got, err := eng.ForwardBatchF32(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %d outputs, %v", len(got), err)
	}
	out := make([]float32, net.Out.Size())
	if err := eng.ForwardBatchF32Into(ins, [][]float32{out}); err != nil {
		t.Fatal(err)
	}
	ref, err := eng.ForwardBatchF32(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != ref[0][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
			t.Fatalf("Into out[%d]=%g != %g", i, out[i], ref[0][i])
		}
	}
}

// TestInferenceEngineConcurrent backs the engine's concurrency promise:
// goroutines sharing one engine (and its arena pool) must each get the
// single-goroutine result bit for bit, in float32 and int8 modes. Run
// under -race in CI.
func TestInferenceEngineConcurrent(t *testing.T) {
	net := randomNet(t, inferArches()["odd-pools"], 13)
	rng := rand.New(rand.NewPCG(5, 3))
	ins := make([][]float32, 11) // spans an inferChunk boundary
	for s := range ins {
		ins[s] = make([]float32, net.In.Size())
		for i := range ins[s] {
			ins[s][i] = float32(rng.Float64() * 4)
		}
	}
	for _, mode := range []string{"float32", "int8"} {
		t.Run(mode, func(t *testing.T) {
			eng, err := NewInferenceEngine(net)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "int8" {
				if _, err := eng.Calibrate(ins); err != nil {
					t.Fatal(err)
				}
				if err := eng.EnableInt8(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := eng.ForwardBatchF32(ins)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := eng.ForwardBatchF32(ins)
					if err != nil {
						t.Error(err)
						return
					}
					for s := range want {
						for i := range want[s] {
							if got[s][i] != want[s][i] { //vvdlint:bitexact -- batch and engine parity vs Forward is bitwise by contract
								t.Errorf("goroutine %d sample %d out[%d]: %g != %g", g, s, i, got[s][i], want[s][i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkInferenceEngineSteadyState pins the zero-allocation claim of
// the pooled arenas: ForwardBatchF32Into must not allocate per call.
func BenchmarkInferenceEngineSteadyState(b *testing.B) {
	in, layers := inferArches()["paper-like"]()
	net, err := NewNetwork(in, rand.New(rand.NewPCG(1, 2)), layers...)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewInferenceEngine(net)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, batch := range []int{1, 8} {
		ins := make([][]float32, batch)
		outs := make([][]float32, batch)
		for s := range ins {
			ins[s] = make([]float32, in.Size())
			for i := range ins[s] {
				ins[s][i] = float32(rng.Float64())
			}
			outs[s] = make([]float32, net.Out.Size())
		}
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.ForwardBatchF32Into(ins, outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
