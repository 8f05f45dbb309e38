// Package gemm implements the matrix-multiply core of the inference
// engine and of training: a cache-blocked float32 GEMM, its transposed-A
// form for weight gradients (SgemmTN) and a symmetric-quantized
// int8×int8→int32 variant, all built around an 8×8 register micro-tile.
//
// The weight operand B is packed once (PackB / PackBInt8) into NR-wide
// column panels and reused across every call — for CNN inference the
// weights never change, so the packing cost is paid at model-compile time.
// The activation operand A is packed per call into MR-row panels held in
// pooled scratch, so steady-state calls allocate nothing. On amd64 with
// AVX2+FMA the micro-kernel is hand-written assembly (8 FMA lanes per
// cycle pair); everywhere else a pure-Go kernel with the same summation
// order runs, so results are platform-independent up to FMA rounding.
//
// Large products are tiled across goroutines by row block; row blocks are
// disjoint, so the parallel result is bitwise identical to sequential.
package gemm

import (
	"encoding/binary"
	"runtime"
	"sync"
)

const (
	// mr×nr is the register micro-tile computed by one kernel call.
	mr = 8
	nr = 8
	// mcRows bounds the packed-A block per worker pass (L2 budget:
	// 128 rows × 1024 k × 4 B = 512 KiB worst case, far less at CNN K).
	mcRows = 128
	// kcCols bounds the K extent of one packed panel pass so the A and B
	// panels stay L1-resident (8 × 1024 × 4 B = 32 KiB each at the cap).
	kcCols = 1024
	// parallelFlops is the m·k·n product above which SgemmPacked fans out
	// across GOMAXPROCS goroutines.
	parallelFlops = 1 << 20
)

// kernF32 is the active float32 micro-kernel: C[8×8] += A_panel·B_panel
// where a is k×8 (a[p*8+r]), b is k×8 (b[p*8+j]) and c has row stride ldc.
// dispatch_amd64.go swaps in the AVX2+FMA version when the CPU supports it.
var kernF32 = sgemmKern8x8Go

// kernI8 is the active int8 micro-kernel over k/2 byte-pair steps:
// C[8×8] += A_panel(u8)·B_panel(s8) with pair-interleaved panels (see
// packAInt8). Integer accumulation is exact, so both implementations
// return identical results.
var kernI8 = qgemmKern8x8Go

// Accelerated reports whether the SIMD micro-kernels are active (amd64
// with AVX2+FMA detected at startup).
func Accelerated() bool { return accelerated }

var accelerated bool

// ---------- float32 ----------

// PackedB is a weight matrix packed into NR-wide column panels, ready to
// stream through the micro-kernel. Build once per weight tensor.
type PackedB struct {
	K, N int
	data []float32 // ceil(N/nr) panels, each K×nr, zero-padded columns
}

// PackB packs the row-major k×n matrix b.
func PackB(k, n int, b []float32) *PackedB {
	pb := &PackedB{K: k, N: n, data: make([]float32, PanelLen(k, n))}
	pb.Repack(b)
	return pb
}

// Repack packs b, a row-major K×N matrix of new values, into pb's
// storage: weights that change every step (training) stay packed without
// allocating.
func (pb *PackedB) Repack(b []float32) {
	if len(b) < pb.K*pb.N {
		panic("gemm: PackB matrix shorter than k×n")
	}
	PackPanels(pb.data, b, pb.N, pb.K, pb.N)
}

// NR is the column count of one packed panel.
const NR = nr

// PanelLen returns the float32 length of a k×n matrix in panel layout.
func PanelLen(k, n int) int { return (n + nr - 1) / nr * k * nr }

// PackPanels writes the k×n matrix b (row stride ldb) in panel layout —
// NR-wide column panels, dst[t*k*NR + p*NR + j] = b[p*ldb + t*NR + j],
// zero past column n — the layout of PackB and of SgemmTN's operands.
func PackPanels(dst, b []float32, ldb, k, n int) {
	for t := 0; t*nr < n; t++ {
		panel := dst[t*k*nr:]
		j0 := t * nr
		cols := min(nr, n-j0)
		for p := 0; p < k; p++ {
			row := b[p*ldb+j0:]
			d := panel[p*nr : p*nr+nr]
			for j := 0; j < cols; j++ {
				d[j] = row[j]
			}
			for j := cols; j < nr; j++ {
				d[j] = 0
			}
		}
	}
}

// scratch holds one worker's packing buffers and edge tiles.
type scratch struct {
	apanel  []float32
	apanel8 []uint8
	tile    [mr * nr]float32
	tile32  [mr * nr]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// SgemmPacked computes C += A·B: a is row-major m×K with stride lda,
// c is row-major m×N with stride ldc, b was packed with PackB. Safe for
// concurrent use; the call itself fans out over row blocks when the
// product is large enough.
func SgemmPacked(m int, a []float32, lda int, pb *PackedB, c []float32, ldc int) {
	if m == 0 {
		return
	}
	k, n := pb.K, pb.N
	workers := runtime.GOMAXPROCS(0)
	blocks := (m + mcRows - 1) / mcRows
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 || m*k*n < parallelFlops {
		sgemmRange(0, m, a, lda, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (blocks + workers - 1) / workers * mcRows
	for i0 := 0; i0 < m; i0 += per {
		i1 := min(i0+per, m)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			sgemmRange(i0, i1, a, lda, pb, c, ldc)
		}(i0, i1)
	}
	wg.Wait()
}

// Sgemm is the convenience form: C += A·B with b packed on the fly
// (tests and one-shot callers; hot paths pre-pack).
func Sgemm(m, k, n int, a, b, c []float32) {
	SgemmPacked(m, a, k, PackB(k, n, b), c, n)
}

// SgemmPackedSeq is SgemmPacked on the calling goroutine only, for
// callers that fan out over independent products themselves.
func SgemmPackedSeq(m int, a []float32, lda int, pb *PackedB, c []float32, ldc int) {
	if m > 0 {
		sgemmRange(0, m, a, lda, pb, c, ldc)
	}
}

// SgemmTN computes C += Aᵀ·B on the calling goroutine, for A (k×m) and
// B (k×n) both in panel layout (see PackPanels) and c row-major m×n with
// stride ldc. It is the weight gradient of a layer, dW = Xᵀ·dY summed
// over the rows of a batch: each micro-tile sums kcCols-deep chunks of k
// in registers and adds them to c in order, so the result does not depend
// on the caller. An operand with exactly NR contiguous columns is its own
// panel layout.
func SgemmTN(m, n, k int, ap, bp []float32, c []float32, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for i := 0; i*mr < m; i++ {
		rows := min(mr, m-i*mr)
		for j := 0; j*nr < n; j++ {
			cols := min(nr, n-j*nr)
			ct := c[i*mr*ldc+j*nr:]
			for p0 := 0; p0 < k; p0 += kcCols {
				kc := min(kcCols, k-p0)
				a := ap[(i*k+p0)*mr:]
				b := bp[(j*k+p0)*nr:]
				if rows == mr && cols == nr {
					kernF32(kc, a, b, ct, ldc)
					continue
				}
				clear(st.tile[:])
				kernF32(kc, a, b, st.tile[:], nr)
				for r := 0; r < rows; r++ {
					crow := ct[r*ldc:]
					for jj := 0; jj < cols; jj++ {
						crow[jj] += st.tile[r*nr+jj]
					}
				}
			}
		}
	}
}

// ---------- caller-prepacked A ----------
//
// Producers that materialize A anyway (im2col) can write it directly in
// panel form and skip the per-call packing pass entirely. The float32
// layout is MR-row panels, k-major within a panel:
//
//	ap[t*k*MR + p*MR + r] = A[t*MR+r, p]
//
// with the tail panel's out-of-range rows zeroed by the producer. The
// int8 layout additionally interleaves K four deep (see PackedBInt8):
//
//	ap[t*KP(k)*MR + qq*4*MR + r*4 + i] = A[t*MR+r, 4*qq+i]
//
// The prepacked path does not chunk K, so it requires k ≤ the kcCols
// panel budget (every CNN patch depth is far below it).

// MR is the row count of one packed-A panel.
const MR = mr

// MaxPrepackedK is the largest k the prepacked entry points accept.
const MaxPrepackedK = kcCols

// KP returns k rounded up to the int8 quad-interleave granularity.
func KP(k int) int { return (k + 3) &^ 3 }

// PackedALen returns the float32 buffer length for a prepacked m×k A.
func PackedALen(m, k int) int { return (m + mr - 1) / mr * k * mr }

// PackedAInt8Len returns the uint8 buffer length for a prepacked m×k A.
func PackedAInt8Len(m, k int) int { return (m + mr - 1) / mr * KP(k) * mr }

// SgemmPrepacked computes C += A·B with A already in panel layout (see
// above); c is row-major m×N with stride ldc. Requires pb.K ≤ 1024.
func SgemmPrepacked(m int, ap []float32, pb *PackedB, c []float32, ldc int) {
	if m == 0 {
		return
	}
	if pb.K > kcCols {
		panic("gemm: SgemmPrepacked requires K within the panel budget")
	}
	rtiles := (m + mr - 1) / mr
	workers := runtime.GOMAXPROCS(0)
	if workers > rtiles {
		workers = rtiles
	}
	if workers <= 1 || m*pb.K*pb.N < parallelFlops {
		sgemmPreRange(0, rtiles, m, ap, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (rtiles + workers - 1) / workers
	for q0 := 0; q0 < rtiles; q0 += per {
		q1 := min(q0+per, rtiles)
		wg.Add(1)
		go func(q0, q1 int) {
			defer wg.Done()
			sgemmPreRange(q0, q1, m, ap, pb, c, ldc)
		}(q0, q1)
	}
	wg.Wait()
}

// SgemmPrepackedSeq is SgemmPrepacked on the calling goroutine only.
func SgemmPrepackedSeq(m int, ap []float32, pb *PackedB, c []float32, ldc int) {
	if m == 0 {
		return
	}
	if pb.K > kcCols {
		panic("gemm: SgemmPrepacked requires K within the panel budget")
	}
	sgemmPreRange(0, (m+mr-1)/mr, m, ap, pb, c, ldc)
}

func sgemmPreRange(q0, q1, m int, ap []float32, pb *PackedB, c []float32, ldc int) {
	k, n := pb.K, pb.N
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for q := q0; q < q1; q++ {
		a := ap[q*k*mr:]
		rrows := min(mr, m-q*mr)
		for t := 0; t*nr < n; t++ {
			bp := pb.data[t*k*nr:]
			j0 := t * nr
			cols := min(nr, n-j0)
			if rrows == mr && cols == nr {
				kernF32(k, a, bp, c[q*mr*ldc+j0:], ldc)
				continue
			}
			clear(st.tile[:])
			kernF32(k, a, bp, st.tile[:], nr)
			for r := 0; r < rrows; r++ {
				crow := c[(q*mr+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += st.tile[r*nr+j]
				}
			}
		}
	}
}

// QgemmPrepacked is the int8 counterpart of SgemmPrepacked: A already in
// quad-interleaved panel layout, C int32 row-major with stride ldc.
func QgemmPrepacked(m int, ap []uint8, pb *PackedBInt8, c []int32, ldc int) {
	if m == 0 {
		return
	}
	rtiles := (m + mr - 1) / mr
	workers := runtime.GOMAXPROCS(0)
	if workers > rtiles {
		workers = rtiles
	}
	if workers <= 1 || m*pb.K*pb.N < parallelFlops {
		qgemmPreRange(0, rtiles, m, ap, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (rtiles + workers - 1) / workers
	for q0 := 0; q0 < rtiles; q0 += per {
		q1 := min(q0+per, rtiles)
		wg.Add(1)
		go func(q0, q1 int) {
			defer wg.Done()
			qgemmPreRange(q0, q1, m, ap, pb, c, ldc)
		}(q0, q1)
	}
	wg.Wait()
}

func qgemmPreRange(q0, q1, m int, ap []uint8, pb *PackedBInt8, c []int32, ldc int) {
	n, kp := pb.N, pb.kp
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for q := q0; q < q1; q++ {
		a := ap[q*kp*mr:]
		rrows := min(mr, m-q*mr)
		for t := 0; t*nr < n; t++ {
			bp := pb.data[t*kp*nr:]
			j0 := t * nr
			cols := min(nr, n-j0)
			if rrows == mr && cols == nr {
				kernI8(kp/4, a, bp, c[q*mr*ldc+j0:], ldc)
				continue
			}
			clear(st.tile32[:])
			kernI8(kp/4, a, bp, st.tile32[:], nr)
			for r := 0; r < rrows; r++ {
				crow := c[(q*mr+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += st.tile32[r*nr+j]
				}
			}
		}
	}
}

func sgemmRange(i0, i1 int, a []float32, lda int, pb *PackedB, c []float32, ldc int) {
	k, n := pb.K, pb.N
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for ic := i0; ic < i1; ic += mcRows {
		rows := min(mcRows, i1-ic)
		rtiles := (rows + mr - 1) / mr
		for kc0 := 0; kc0 < k; kc0 += kcCols {
			kc := min(kcCols, k-kc0)
			st.apanel = packA(st.apanel, a[ic*lda+kc0:], lda, rows, kc)
			for t := 0; t*nr < n; t++ {
				bp := pb.data[t*k*nr+kc0*nr:]
				j0 := t * nr
				cols := min(nr, n-j0)
				for q := 0; q < rtiles; q++ {
					ap := st.apanel[q*kc*mr:]
					rrows := min(mr, rows-q*mr)
					if rrows == mr && cols == nr {
						kernF32(kc, ap, bp, c[(ic+q*mr)*ldc+j0:], ldc)
						continue
					}
					clear(st.tile[:])
					kernF32(kc, ap, bp, st.tile[:], nr)
					for r := 0; r < rrows; r++ {
						crow := c[(ic+q*mr+r)*ldc+j0:]
						for j := 0; j < cols; j++ {
							crow[j] += st.tile[r*nr+j]
						}
					}
				}
			}
		}
	}
}

// packA copies rows×kc of a (stride lda) into MR-row panels laid out
// a[q][p*mr+r], zero-padding the tail rows of the last panel.
func packA(dst []float32, a []float32, lda, rows, kc int) []float32 {
	rtiles := (rows + mr - 1) / mr
	need := rtiles * kc * mr
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	for q := 0; q < rtiles; q++ {
		panel := dst[q*kc*mr:]
		for r := 0; r < mr; r++ {
			row := q*mr + r
			if row >= rows {
				for p := 0; p < kc; p++ {
					panel[p*mr+r] = 0
				}
				continue
			}
			src := a[row*lda : row*lda+kc]
			for p, v := range src {
				panel[p*mr+r] = v
			}
		}
	}
	return dst
}

// sgemmKern8x8Go is the portable micro-kernel (same k-order summation as
// the assembly version, without fused multiply-add).
func sgemmKern8x8Go(kc int, a, b, c []float32, ldc int) {
	var acc [mr * nr]float32
	for p := 0; p < kc; p++ {
		bv := b[p*nr : p*nr+nr]
		av := a[p*mr : p*mr+mr]
		for r := 0; r < mr; r++ {
			ar := av[r]
			row := acc[r*nr : r*nr+nr]
			for j, bj := range bv {
				row[j] += ar * bj
			}
		}
	}
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			crow[j] += acc[r*nr+j]
		}
	}
}

// ---------- int8 ----------

// PackedBInt8 is a symmetric-quantized weight matrix packed for the
// u8×s8→s32 kernel: NR-wide column panels with the K dimension
// interleaved four deep, so each 32-bit lane of a panel block holds one
// column's next four weights (VPMADDUBSW + VPMADDWD reduce a 4-deep dot
// product per lane).
type PackedBInt8 struct {
	K, N int
	kp   int // K rounded up to a multiple of 4
	data []int8
}

// PackBInt8 packs the row-major k×n int8 matrix b.
func PackBInt8(k, n int, b []int8) *PackedBInt8 {
	if len(b) < k*n {
		panic("gemm: PackBInt8 matrix shorter than k×n")
	}
	kp := (k + 3) &^ 3
	tiles := (n + nr - 1) / nr
	pb := &PackedBInt8{K: k, N: n, kp: kp, data: make([]int8, tiles*kp*nr)}
	for t := 0; t < tiles; t++ {
		panel := pb.data[t*kp*nr:]
		j0 := t * nr
		cols := min(nr, n-j0)
		for qq := 0; qq < kp/4; qq++ {
			blk := panel[qq*4*nr:]
			for j := 0; j < cols; j++ {
				for i := 0; i < 4; i++ {
					p := 4*qq + i
					if p < k {
						blk[j*4+i] = b[p*n+j0+j]
					}
				}
			}
		}
	}
	return pb
}

// QgemmPacked computes C += A·B for quantized operands: a is row-major
// m×K uint8 with stride lda, c is row-major m×N int32 with stride ldc.
// Accumulation is exact; callers zero c (or pre-load it with a bias in
// the int32 domain) before the call. The kernel requires activation
// values ≤ 127 — the quantizer's 7-bit unsigned range — so the s16
// intermediate of the SIMD path cannot saturate.
func QgemmPacked(m int, a []uint8, lda int, pb *PackedBInt8, c []int32, ldc int) {
	if m == 0 {
		return
	}
	k, n := pb.K, pb.N
	workers := runtime.GOMAXPROCS(0)
	blocks := (m + mcRows - 1) / mcRows
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 || m*k*n < parallelFlops {
		qgemmRange(0, m, a, lda, pb, c, ldc)
		return
	}
	var wg sync.WaitGroup
	per := (blocks + workers - 1) / workers * mcRows
	for i0 := 0; i0 < m; i0 += per {
		i1 := min(i0+per, m)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			qgemmRange(i0, i1, a, lda, pb, c, ldc)
		}(i0, i1)
	}
	wg.Wait()
}

func qgemmRange(i0, i1 int, a []uint8, lda int, pb *PackedBInt8, c []int32, ldc int) {
	k, n, kp := pb.K, pb.N, pb.kp
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for ic := i0; ic < i1; ic += mcRows {
		rows := min(mcRows, i1-ic)
		rtiles := (rows + mr - 1) / mr
		// K is never chunked on the int8 path: CNN patch depths are far
		// below kcCols and the packed pair layout would complicate offsets.
		st.apanel8 = packAInt8(st.apanel8, a, lda, ic, rows, k, kp)
		for t := 0; t*nr < n; t++ {
			bp := pb.data[t*kp*nr:]
			j0 := t * nr
			cols := min(nr, n-j0)
			for q := 0; q < rtiles; q++ {
				ap := st.apanel8[q*kp*mr:]
				rrows := min(mr, rows-q*mr)
				if rrows == mr && cols == nr {
					kernI8(kp/4, ap, bp, c[(ic+q*mr)*ldc+j0:], ldc)
					continue
				}
				clear(st.tile32[:])
				kernI8(kp/4, ap, bp, st.tile32[:], nr)
				for r := 0; r < rrows; r++ {
					crow := c[(ic+q*mr+r)*ldc+j0:]
					for j := 0; j < cols; j++ {
						crow[j] += st.tile32[r*nr+j]
					}
				}
			}
		}
	}
}

// packAInt8 packs rows×k of a (stride lda, starting at row ic) into
// quad-interleaved MR-row panels: dst[q][qq*4*mr + r*4 + i] = A[row, 4qq+i].
func packAInt8(dst []uint8, a []uint8, lda, ic, rows, k, kp int) []uint8 {
	rtiles := (rows + mr - 1) / mr
	need := rtiles * kp * mr
	if cap(dst) < need {
		dst = make([]uint8, need)
	}
	dst = dst[:need]
	for q := 0; q < rtiles; q++ {
		panel := dst[q*kp*mr:]
		for r := 0; r < mr; r++ {
			row := q*mr + r
			if row >= rows {
				for qq := 0; qq < kp/4; qq++ {
					blk := panel[qq*4*mr+r*4:]
					blk[0], blk[1], blk[2], blk[3] = 0, 0, 0, 0
				}
				continue
			}
			src := a[(ic+row)*lda : (ic+row)*lda+k]
			nq := k >> 2
			for qq := 0; qq < nq; qq++ {
				binary.LittleEndian.PutUint32(panel[qq*4*mr+r*4:], binary.LittleEndian.Uint32(src[qq*4:]))
			}
			if k&3 != 0 {
				blk := panel[nq*4*mr+r*4:][:4]
				blk[0], blk[1], blk[2], blk[3] = 0, 0, 0, 0
				copy(blk, src[nq*4:])
			}
		}
	}
	return dst
}

// qgemmKern8x8Go is the portable int8 micro-kernel (exact integer match
// with the SIMD version).
func qgemmKern8x8Go(kp4 int, a []uint8, b []int8, c []int32, ldc int) {
	var acc [mr * nr]int32
	for qq := 0; qq < kp4; qq++ {
		ab := a[qq*4*mr : qq*4*mr+4*mr]
		bb := b[qq*4*nr : qq*4*nr+4*nr]
		for r := 0; r < mr; r++ {
			a0 := int32(ab[r*4])
			a1 := int32(ab[r*4+1])
			a2 := int32(ab[r*4+2])
			a3 := int32(ab[r*4+3])
			row := acc[r*nr : r*nr+nr]
			for j := 0; j < nr; j++ {
				bj := bb[j*4 : j*4+4]
				row[j] += a0*int32(bj[0]) + a1*int32(bj[1]) + a2*int32(bj[2]) + a3*int32(bj[3])
			}
		}
	}
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			crow[j] += acc[r*nr+j]
		}
	}
}
