package mat

import "fmt"

// This file is the BLAS-grade GEMM core behind the serving hot path:
// register-blocked float64 micro-kernels over a packed weight-panel
// format. internal/kernel wraps it in the "packed" registry format,
// which packs once at build time and reuses the panels across every
// MulInto — the same amortization trick sparse.Pattern plays with its
// packed weight stream.
//
// # Panel layout
//
// The weight matrix W (K x N, row-major) is repacked into column panels
// of width PanelWidth, K-major within each panel — the leading-dimension
// trick of BLAS B-packing (cf. Zgemm's ldb): panel p holds columns
// [p*4, p*4+4) and stores, for ascending k, the 4 values W[k][p*4..].
// The micro-kernel therefore reads the weight stream strictly
// sequentially, one cache line per two k steps, while broadcasting each
// x value across 4 output columns. The last panel is zero-padded to full
// width so every kernel iteration is branch-free; the padded columns are
// computed into registers and simply never stored.
//
// # Register blocking
//
// The inner kernels compute 8x4 and 4x4 accumulator tiles (with 1x4 and
// narrow-store remainder paths), so each loaded x value feeds 4 products
// and each loaded weight value feeds 8 (or 4): the naive X@W loop's
// per-FMA load/store traffic on dst disappears into registers, which is
// where the >=2x over the cache-tiled scalar kernels comes from.
//
// Each dst element still accumulates its contraction in ascending k
// order, so the product is bit-identical to the naive triple loop —
// the property every packed-vs-dense equivalence test in this repo keys
// on. Register blocking reorders work across dst elements, never within
// one element's sum.

// PanelWidth is the packed-panel column width: the register-blocked
// micro-kernels compute PanelWidth output columns per accumulator tile.
const PanelWidth = 4

// gemmMC is the row-block size of the outer loop: a block of x rows is
// reused across every weight panel while it is cache-hot.
const gemmMC = 64

// Panels is the packed weight-panel form of a K x N weight matrix (see
// the package comment above): ceil(N/PanelWidth) panels of K*PanelWidth
// values each, K-major within a panel, zero-padded at the right edge.
type Panels struct {
	K, N int
	Data []float64

	jobs FreeList[*panelJob] // reusable Fork bodies of GemmPanels calls
}

// PackPanels packs w (K x N, row-major) into weight panels. Packing is
// one-time work amortized across every subsequent GemmPanels call — do
// it at kernel build time, not per product.
func PackPanels(w *Matrix) *Panels {
	K, N := w.Rows, w.Cols
	np := (N + PanelWidth - 1) / PanelWidth
	p := &Panels{K: K, N: N, Data: make([]float64, np*K*PanelWidth)}
	for pi := 0; pi < np; pi++ {
		j0 := pi * PanelWidth
		nw := N - j0
		if nw > PanelWidth {
			nw = PanelWidth
		}
		base := pi * K * PanelWidth
		for k := 0; k < K; k++ {
			row := w.Data[k*N : k*N+N]
			for j := 0; j < nw; j++ {
				p.Data[base+k*PanelWidth+j] = row[j0+j]
			}
		}
	}
	return p
}

// GemmPanels computes dst = X @ W from the packed panels of W, where X
// is dst.Rows x K (row-major, contiguous). dst must not alias x's
// backing array. Batches of several gemmMC-row blocks split by block
// across the Fork helpers, a single block (a decode step's logits) by
// column partition. A last block of 1-7 rows costs a full tile, so work
// counts whole tiles.
func GemmPanels(dst *Matrix, x []float64, p *Panels) {
	M, K, N := dst.Rows, p.K, p.N
	if len(x) != M*K {
		panic(fmt.Sprintf("mat: GemmPanels x len %d != %d*%d", len(x), M, K))
	}
	if dst.Cols != N {
		panic(fmt.Sprintf("mat: GemmPanels dst cols %d != N %d", dst.Cols, N))
	}
	n, cols := (M+gemmMC-1)/gemmMC, false
	if n == 1 {
		n, cols = (N+LanePartition-1)/LanePartition, true
	}
	forkJob(&p.jobs, n, (M+7)/8*8*K*N, panelJob{dst, x, p, cols})
}

// panelJob is one GemmPanels call as a Fork body. A unit is one row
// block of gemmMC rows, or, when cols is set, one partition of
// LanePartition columns of the only row block: whole cache lines of
// every dst row, as in GemmLanes.
type panelJob struct {
	dst  *Matrix
	x    []float64
	p    *Panels
	cols bool
}

func (j *panelJob) Range(lo, hi int) {
	const part = LanePartition / PanelWidth
	rows, np := j.dst.Rows, (j.p.N+PanelWidth-1)/PanelWidth
	if j.cols {
		gemmPanelRows(j.dst, j.x, j.p, 0, rows, lo*part, min(hi*part, np), hasAVX)
		return
	}
	gemmPanelRows(j.dst, j.x, j.p, lo*gemmMC, min(hi*gemmMC, rows), 0, np, hasAVX)
}

// gemmPanelRows is GemmPanels over rows [r0, r1), r0 a multiple of
// gemmMC, and panels [p0, p1), with the kernel choice explicit so tests
// can hold the assembly tile against the portable ones. With asm set,
// kern8x4AVX computes an 8x4 accumulator tile from one full-width panel
// and stores its first rows rows, bit for bit what kern8x4 stores; it
// takes a last block of 1-7 rows too (the missing rows recompute row 0
// and are not stored), so any M gets tile speed. The right-edge panel,
// and everything without asm, runs the portable register-blocked kernels.
func gemmPanelRows(dst *Matrix, x []float64, p *Panels, r0, r1, p0, p1 int, asm bool) {
	K, N := p.K, p.N
	for mc := r0; mc < r1; mc += gemmMC {
		m1 := min(mc+gemmMC, r1)
		for pi := p0; pi < p1; pi++ {
			j0 := pi * PanelWidth
			nw := N - j0
			if nw > PanelWidth {
				nw = PanelWidth
			}
			bp := p.Data[pi*K*PanelWidth : (pi+1)*K*PanelWidth]
			m := mc
			if asm && nw == PanelWidth && K > 0 {
				for ; m < m1; m += 8 {
					kern8x4AVX(&bp[0], &x[m*K], K, &dst.Data[m*N+j0], N, K, min(8, m1-m))
				}
			}
			for ; m+8 <= m1; m += 8 {
				kern8x4(bp,
					x[(m+0)*K:(m+1)*K], x[(m+1)*K:(m+2)*K], x[(m+2)*K:(m+3)*K], x[(m+3)*K:(m+4)*K],
					x[(m+4)*K:(m+5)*K], x[(m+5)*K:(m+6)*K], x[(m+6)*K:(m+7)*K], x[(m+7)*K:(m+8)*K],
					dst.Data[(m+0)*N+j0:(m+0)*N+j0+nw], dst.Data[(m+1)*N+j0:(m+1)*N+j0+nw],
					dst.Data[(m+2)*N+j0:(m+2)*N+j0+nw], dst.Data[(m+3)*N+j0:(m+3)*N+j0+nw],
					dst.Data[(m+4)*N+j0:(m+4)*N+j0+nw], dst.Data[(m+5)*N+j0:(m+5)*N+j0+nw],
					dst.Data[(m+6)*N+j0:(m+6)*N+j0+nw], dst.Data[(m+7)*N+j0:(m+7)*N+j0+nw])
			}
			for ; m+4 <= m1; m += 4 {
				kern4x4(bp,
					x[(m+0)*K:(m+1)*K], x[(m+1)*K:(m+2)*K], x[(m+2)*K:(m+3)*K], x[(m+3)*K:(m+4)*K],
					dst.Data[(m+0)*N+j0:(m+0)*N+j0+nw], dst.Data[(m+1)*N+j0:(m+1)*N+j0+nw],
					dst.Data[(m+2)*N+j0:(m+2)*N+j0+nw], dst.Data[(m+3)*N+j0:(m+3)*N+j0+nw])
			}
			for ; m < m1; m++ {
				kern1x4(bp, x[m*K:(m+1)*K], dst.Data[m*N+j0:m*N+j0+nw])
			}
		}
	}
}

// kern8x4 computes an 8-row x 4-column accumulator tile: 32 registers of
// partial sums over the shared k loop, 12 loads per 32 FMAs.
func kern8x4(bp, a0, a1, a2, a3, a4, a5, a6, a7, c0, c1, c2, c3, c4, c5, c6, c7 []float64) {
	K := len(a0)
	a1, a2, a3 = a1[:K], a2[:K], a3[:K]
	a4, a5, a6, a7 = a4[:K], a5[:K], a6[:K], a7[:K]
	bp = bp[: 4*K : 4*K]
	var s00, s01, s02, s03, s10, s11, s12, s13 float64
	var s20, s21, s22, s23, s30, s31, s32, s33 float64
	var s40, s41, s42, s43, s50, s51, s52, s53 float64
	var s60, s61, s62, s63, s70, s71, s72, s73 float64
	for k := 0; k < K; k++ {
		bi := 4 * k
		b0, b1, b2, b3 := bp[bi], bp[bi+1], bp[bi+2], bp[bi+3]
		av := a0[k]
		s00 += av * b0
		s01 += av * b1
		s02 += av * b2
		s03 += av * b3
		av = a1[k]
		s10 += av * b0
		s11 += av * b1
		s12 += av * b2
		s13 += av * b3
		av = a2[k]
		s20 += av * b0
		s21 += av * b1
		s22 += av * b2
		s23 += av * b3
		av = a3[k]
		s30 += av * b0
		s31 += av * b1
		s32 += av * b2
		s33 += av * b3
		av = a4[k]
		s40 += av * b0
		s41 += av * b1
		s42 += av * b2
		s43 += av * b3
		av = a5[k]
		s50 += av * b0
		s51 += av * b1
		s52 += av * b2
		s53 += av * b3
		av = a6[k]
		s60 += av * b0
		s61 += av * b1
		s62 += av * b2
		s63 += av * b3
		av = a7[k]
		s70 += av * b0
		s71 += av * b1
		s72 += av * b2
		s73 += av * b3
	}
	store4(c0, s00, s01, s02, s03)
	store4(c1, s10, s11, s12, s13)
	store4(c2, s20, s21, s22, s23)
	store4(c3, s30, s31, s32, s33)
	store4(c4, s40, s41, s42, s43)
	store4(c5, s50, s51, s52, s53)
	store4(c6, s60, s61, s62, s63)
	store4(c7, s70, s71, s72, s73)
}

// kern4x4 computes a 4-row x 4-column accumulator tile.
func kern4x4(bp, a0, a1, a2, a3, c0, c1, c2, c3 []float64) {
	K := len(a0)
	a1, a2, a3 = a1[:K], a2[:K], a3[:K]
	bp = bp[: 4*K : 4*K]
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for k := 0; k < K; k++ {
		bi := 4 * k
		b0, b1, b2, b3 := bp[bi], bp[bi+1], bp[bi+2], bp[bi+3]
		av := a0[k]
		s00 += av * b0
		s01 += av * b1
		s02 += av * b2
		s03 += av * b3
		av = a1[k]
		s10 += av * b0
		s11 += av * b1
		s12 += av * b2
		s13 += av * b3
		av = a2[k]
		s20 += av * b0
		s21 += av * b1
		s22 += av * b2
		s23 += av * b3
		av = a3[k]
		s30 += av * b0
		s31 += av * b1
		s32 += av * b2
		s33 += av * b3
	}
	store4(c0, s00, s01, s02, s03)
	store4(c1, s10, s11, s12, s13)
	store4(c2, s20, s21, s22, s23)
	store4(c3, s30, s31, s32, s33)
}

// kern1x4 is the row-remainder kernel: one row x 4 columns.
func kern1x4(bp, a0, c0 []float64) {
	K := len(a0)
	bp = bp[: 4*K : 4*K]
	var s0, s1, s2, s3 float64
	for k := 0; k < K; k++ {
		bi := 4 * k
		av := a0[k]
		s0 += av * bp[bi]
		s1 += av * bp[bi+1]
		s2 += av * bp[bi+2]
		s3 += av * bp[bi+3]
	}
	store4(c0, s0, s1, s2, s3)
}

// store4 writes up to 4 accumulators into the (possibly narrow) edge of
// a dst row; len(c) < 4 only at the right edge of a padded last panel.
func store4(c []float64, v0, v1, v2, v3 float64) {
	if len(c) == 4 {
		c[0], c[1], c[2], c[3] = v0, v1, v2, v3
		return
	}
	switch len(c) {
	case 3:
		c[2] = v2
		fallthrough
	case 2:
		c[1] = v1
		fallthrough
	case 1:
		c[0] = v0
	}
}
