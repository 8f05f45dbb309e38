package gemm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refMul is the float64 reference: C += A·B in the same k-major
// summation order as the kernels.
func refMul(m, k, n int, a, b []float32, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] += acc
		}
	}
}

func randMat(rng *rand.Rand, size int) []float32 {
	m := make([]float32, size)
	for i := range m {
		m[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestSgemmMatchesReference drives random shapes — including every edge
// case the tiler has (ragged rows, ragged cols, k above the chunk size) —
// against the float64 reference.
func TestSgemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 7))
	shapes := [][3]int{
		{1, 1, 1}, {8, 8, 8}, {7, 3, 5}, {9, 9, 9}, {16, 9, 8},
		{33, 17, 22}, {130, 72, 16}, {257, 224, 64}, {64, 1100, 9},
		{4224, 9, 8}, {5, 2048, 3},
	}
	for range 8 {
		shapes = append(shapes, [3]int{rng.IntN(200) + 1, rng.IntN(300) + 1, rng.IntN(70) + 1})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		c := make([]float32, m*n)
		for i := range c {
			c[i] = float32(rng.NormFloat64()) // C += must respect prior content
		}
		want := make([]float64, m*n)
		for i := range want {
			want[i] = float64(c[i])
		}
		refMul(m, k, n, a, b, want)
		Sgemm(m, k, n, a, b, c)
		for i := range c {
			diff := math.Abs(float64(c[i]) - want[i])
			tol := 1e-4 + 1e-5*math.Abs(want[i])*math.Sqrt(float64(k))
			if diff > tol {
				t.Fatalf("m=%d k=%d n=%d: c[%d]=%g want %g (diff %g)", m, k, n, i, c[i], want[i], diff)
			}
		}
	}
}

// TestSgemmKernelAgreement pins the assembly and Go micro-kernels against
// each other (FMA-rounding tolerance) on the same packed panels.
func TestSgemmKernelAgreement(t *testing.T) {
	if !Accelerated() {
		t.Skip("no SIMD kernel on this platform")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for _, kc := range []int{1, 2, 7, 8, 64, 129} {
		a := randMat(rng, kc*mr)
		b := randMat(rng, kc*nr)
		cAsm := make([]float32, mr*nr)
		cGo := make([]float32, mr*nr)
		kernF32(kc, a, b, cAsm, nr)
		sgemmKern8x8Go(kc, a, b, cGo, nr)
		for i := range cAsm {
			diff := math.Abs(float64(cAsm[i] - cGo[i]))
			if diff > 1e-3+1e-4*math.Abs(float64(cGo[i])) {
				t.Fatalf("kc=%d: asm[%d]=%g go=%g", kc, i, cAsm[i], cGo[i])
			}
		}
	}
}

// TestSgemmTNMatchesReference drives the transposed-A product the
// trainer's weight gradients run (C += Aᵀ·B over panel-layout operands,
// reduced over k) on a padded C stride and every tiling edge, k above the
// chunk size included.
func TestSgemmTNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	shapes := [][3]int{
		{1, 1, 1}, {8, 8, 8}, {10, 8, 4224}, {73, 8, 924}, {73, 16, 171},
		{145, 16, 14}, {225, 64, 16}, {5, 3, 2049}, {17, 22, 33},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		lda, ldb, ldc := m+3, n+1, n+2
		a := randMat(rng, k*lda)
		b := randMat(rng, k*ldb)
		c := randMat(rng, m*ldc) // C += must respect prior content
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				acc := float64(c[i*ldc+j])
				for p := 0; p < k; p++ {
					acc += float64(a[p*lda+i]) * float64(b[p*ldb+j])
				}
				want[i*n+j] = acc
			}
		}
		ap := make([]float32, PanelLen(k, m))
		bp := make([]float32, PanelLen(k, n))
		PackPanels(ap, a, lda, k, m)
		PackPanels(bp, b, ldb, k, n)
		pad := c[n] // a stride gap SgemmTN must not touch
		SgemmTN(m, n, k, ap, bp, c, ldc)
		if c[n] != pad { //vvdlint:bitexact -- the gap is never written
			t.Fatalf("m=%d n=%d k=%d: wrote the stride gap", m, n, k)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got, w := float64(c[i*ldc+j]), want[i*n+j]
				if math.Abs(got-w) > 1e-4+1e-5*math.Abs(w)*math.Sqrt(float64(k)) {
					t.Fatalf("m=%d n=%d k=%d: c[%d,%d]=%g want %g", m, n, k, i, j, got, w)
				}
			}
		}
	}
}

// TestSgemmSeqMatchesFanOut: the single-goroutine entry points give the
// fanned-out ones' result bit for bit, and Repack rebuilds what PackB
// built.
func TestSgemmSeqMatchesFanOut(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 80))
	m, k, n := 4224, 72, 16 // above parallelFlops: the fanned-out call splits
	a := randMat(rng, m*k)
	w := randMat(rng, k*n)
	pb := PackB(k, n, randMat(rng, k*n))
	pb.Repack(w)
	fresh := PackB(k, n, w)
	for i := range pb.data {
		if pb.data[i] != fresh.data[i] { //vvdlint:bitexact -- packing copies values
			t.Fatalf("Repack differs from PackB at %d", i)
		}
	}
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	SgemmPacked(m, a, k, pb, want, n)
	SgemmPackedSeq(m, a, k, pb, got, n)
	ap := make([]float32, PackedALen(m, k))
	packA(ap, a, k, m, k)
	wantPre := make([]float32, m*n)
	gotPre := make([]float32, m*n)
	SgemmPrepacked(m, ap, pb, wantPre, n)
	SgemmPrepackedSeq(m, ap, pb, gotPre, n)
	for i := range want {
		if got[i] != want[i] || gotPre[i] != wantPre[i] { //vvdlint:bitexact -- row blocks are disjoint
			t.Fatalf("serial result differs at %d", i)
		}
	}
}

// refMulInt8 is the exact integer reference.
func refMulInt8(m, k, n int, a []uint8, b []int8, c []int32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			c[i*n+j] += acc
		}
	}
}

// TestQgemmMatchesReference: the quantized path is exact integer math, so
// SIMD and Go must agree with the reference bit for bit.
func TestQgemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 77))
	shapes := [][3]int{
		{1, 1, 1}, {8, 8, 8}, {7, 3, 5}, {9, 9, 9}, {16, 10, 8},
		{33, 17, 22}, {130, 72, 16}, {257, 224, 64}, {4224, 9, 8}, {3, 127, 6},
	}
	for range 8 {
		shapes = append(shapes, [3]int{rng.IntN(200) + 1, rng.IntN(300) + 1, rng.IntN(70) + 1})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := make([]uint8, m*k)
		for i := range a {
			a[i] = uint8(rng.IntN(128)) // quantizer range: 7-bit unsigned
		}
		b := make([]int8, k*n)
		for i := range b {
			b[i] = int8(rng.IntN(255) - 127)
		}
		c := make([]int32, m*n)
		for i := range c {
			c[i] = int32(rng.IntN(1000) - 500)
		}
		want := append([]int32(nil), c...)
		refMulInt8(m, k, n, a, b, want)
		QgemmPacked(m, a, k, PackBInt8(k, n, b), c, n)
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d: c[%d]=%d want %d", m, k, n, i, c[i], want[i])
			}
		}
	}
}

// TestQgemmSaturationBound documents the kernel precondition: with
// activations ≤127 and weights in [-127,127] the pairwise s16 sum of the
// SIMD path peaks at 2·127·127 = 32258 < 32767, so it can never saturate.
func TestQgemmSaturationBound(t *testing.T) {
	k := 64
	a := make([]uint8, k)
	b := make([]int8, k)
	for i := range a {
		a[i] = 127
		b[i] = -127
	}
	c := make([]int32, 1)
	QgemmPacked(1, a, k, PackBInt8(k, 1, b), c, 1)
	if want := int32(-127 * 127 * int32(k)); c[0] != want {
		t.Fatalf("worst-case accumulate = %d, want %d", c[0], want)
	}
}

func TestAcceleratedReportsPlatform(t *testing.T) {
	t.Logf("SIMD kernels active: %v", Accelerated())
}

// ---------- benchmarks ----------

// BenchmarkGemm measures the shapes the CNN inference path actually runs
// (conv1/conv2/conv3 im2col products and the hidden dense layer).
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range [][3]int{{4224, 9, 8}, {924, 72, 8}, {171, 72, 16}, {8, 224, 64}} {
		m, k, n := s[0], s[1], s[2]
		a := randMat(rng, m*k)
		pb := PackB(k, n, randMat(rng, k*n))
		c := make([]float32, m*n)
		b.Run(fmt.Sprintf("f32_%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SgemmPacked(m, a, k, pb, c, n)
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		a8 := make([]uint8, m*k)
		for i := range a8 {
			a8[i] = uint8(rng.IntN(128))
		}
		b8 := make([]int8, k*n)
		for i := range b8 {
			b8[i] = int8(rng.IntN(255) - 127)
		}
		pb8 := PackBInt8(k, n, b8)
		c32 := make([]int32, m*n)
		b.Run(fmt.Sprintf("int8_%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QgemmPacked(m, a8, k, pb8, c32, n)
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
		})
	}
}
