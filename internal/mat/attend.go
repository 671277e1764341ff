package mat

import "fmt"

// This file is the attention core: one head-row of scaled dot-product
// attention, shared by the batched forward (prefill, classifier, the
// full-recompute reference), the cached decode step and the chunked
// decode in internal/transformer. Because all three run this one body,
// cached == batched == chunked holds by construction.
//
// # Layout
//
// Scores and value sums are the same operation — a row vector times a
// row-major matrix, dst = scale * (a @ B), every dst element summing its
// products in ascending row order — once the keys are stored
// feature-major: kT[c*ld+j] is feature c of key row j, so q @ kT walks
// the features of 16 consecutive key rows as 16 contiguous floats. The
// vector lane is the key row (for the value sum: the output column), so
// the reduction order of every single score and context element is the
// scalar loop's; the kernels only run such sums side by side: the ZMM
// kernels up to 64 per pass, eight independent 8-lane accumulator
// chains, the YMM kernel 16, four 4-lane chains.
//
// # Twins
//
// Three twins compute the same bits, picked once from CPUID/XCR0 by
// attendGate: avx512 runs the ZMM kernels over the whole 16-column
// blocks and the YMM kernel over a last partial one, avx the YMM kernel
// alone, go the portable loops. Their sums need no FMA3.
//
// # Padding
//
// The score product always reads whole blocks of AttendBlock key rows:
// kT must be readable up to the window rounded up to a block (a KV cache
// rounds its capacity, the batched path pads its scratch). What the
// lanes past the window hold — stale rows of a truncated cache, the next
// sequence's keys, NaN — never reaches a stored result: lanes do not
// mix, and only the window's scores are stored.
//
// # Bit identity
//
// Every score is one ascending-feature sum of separately rounded
// products (VMULPD then VADDPD on amd64, YMM and ZMM alike, no FMA)
// followed by one multiply by scale; the softmax is Softmax (exp.go):
// the maximum, the repository's Exp of every score minus it — a vector
// kernel with a portable twin, equal at tolerance 0 — their ascending
// sum and one multiply by its reciprocal; every context element is one
// ascending-key-row sum. The naive reference (testutil.NaiveAttend)
// restates all three, the polynomial of Exp included, and the core
// equals it bit for bit. Against MatMulT + Scale + SoftmaxRows + MatMul
// there is one difference: MatMul skips a row whose probability is
// exactly 0 (exp underflow), the core adds its 0*v products. For finite
// v those are ±0 and leave the sum unchanged; a non-finite v under a
// zero probability now yields NaN where the skip hid it — values are
// finite activations, and hiding an Inf was never a contract.

// AttendBlock is the number of key rows (or output columns) the YMM
// kernel sums side by side and the ZMM kernels' pass widths are
// multiples of; key storage is padded to a multiple of it.
const AttendBlock = 16

// AttendPadded rounds a key-row count up to whole blocks: how far a key
// block must be readable for a window of that many rows.
func AttendPadded(rows int) int { return (rows + AttendBlock - 1) / AttendBlock * AttendBlock }

// Attend computes one head-row of attention over a window of rows key
// rows: p[j] = softmax_j(scale * q·K[j]) and out = Σ_j p[j] * V[j], for
// j ascending. q and out hold the head's len(q) features; kT is the
// feature-major key block (kT[c*ld+j], readable to rows rounded up to
// AttendBlock — see the file comment); v is the row-major value block
// at row stride vs. On return p[:rows] holds the probabilities.
// Allocation-free.
func Attend(out, q, kT []float64, ld int, v []float64, vs, rows int, scale float64, p []float64) {
	attend(out, q, kT, ld, v, vs, rows, scale, p, attendHost)
}

// attend is Attend with the twin explicit, so tests can hold each twin
// to the naive reference. Its softmax runs the same twin of the vector
// math, or the widest below it this host has.
func attend(out, q, kT []float64, ld int, v []float64, vs, rows int, scale float64, p []float64, kern isa) {
	hd := len(q)
	if rows < 1 || hd == 0 || len(out) != hd || len(p) < rows || len(kT) < (hd-1)*ld+AttendPadded(rows) || len(v) < (rows-1)*vs+hd {
		panic(fmt.Sprintf("mat: Attend head dim %d/%d over %d rows: %d keys at stride %d, %d values at stride %d, %d scores",
			hd, len(out), rows, len(kT), ld, len(v), vs, len(p)))
	}
	p = p[:rows]
	vecMat(p, q, kT, ld, scale, true, kern)
	softmax(p, p, min(kern, tailHost))
	vecMat(out, p, v, vs, 1, false, kern)
}

// vecMat computes dst = scale * (a @ B) for the row-major len(a) x
// len(dst) matrix b at row stride stride, each dst element summing its
// products in ascending row order. The ZMM kernels take the whole
// blocks. padded says every row of b is readable up to len(dst) rounded
// up to AttendBlock, which lets the YMM kernel take the last partial
// block too; otherwise the portable loop runs the columns past the last
// full block. The multiply by scale == 1 is exact.
func vecMat(dst, a, b []float64, stride int, scale float64, padded bool, kern isa) {
	done, whole := 0, len(dst)-len(dst)%AttendBlock
	if kern == isaZ && whole > 0 {
		vecMatZ(&dst[0], &a[0], len(a), &b[0], stride, whole, scale)
		done = whole
	}
	if kern != isaGo {
		end := whole
		if padded {
			end = len(dst)
		}
		if done < end {
			vecMat16AVX(&dst[done], &a[0], len(a), &b[done], stride, end-done, scale)
			done = end
		}
	}
	if done < len(dst) {
		vecMatGo(dst[done:], a, b[done:], stride, scale)
	}
}

// vecMatGo is the portable kernel, the loop nest the assembly kernels
// replicate: AttendBlock columns at a time, one accumulator per column.
// It reads only the len(dst) real columns. The attention core stays
// unfused (VMULPD then VADDPD): the conversion keeps a port that fuses
// x*y + z on its own (arm64 and others) to the same rounding.
func vecMatGo(dst, a, b []float64, stride int, scale float64) {
	for j0 := 0; j0 < len(dst); j0 += AttendBlock {
		var acc [AttendBlock]float64
		w := min(AttendBlock, len(dst)-j0)
		for i, av := range a {
			for l, bv := range b[i*stride+j0:][:w] {
				acc[l] += float64(av * bv)
			}
		}
		for l, s := range acc[:w] {
			dst[j0+l] = s * scale
		}
	}
}

// PackKeys stores the rows x n row-major block src (row stride ss) in
// feature-major form: kT[c*ld+j] = src[j*ss+c]. Callers place the block
// at key row j0 by passing kT[j0:]. Four rows move at a time so each
// feature's run is written 32 bytes at once.
func PackKeys(kT []float64, ld int, src []float64, ss, rows, n int) {
	j := 0
	for ; j+4 <= rows; j += 4 {
		r0, r1, r2, r3 := src[j*ss:][:n], src[(j+1)*ss:][:n], src[(j+2)*ss:][:n], src[(j+3)*ss:][:n]
		for c, x := range r0 {
			o := kT[c*ld+j:][:4:4]
			o[0], o[1], o[2], o[3] = x, r1[c], r2[c], r3[c]
		}
	}
	for ; j < rows; j++ {
		for c, x := range src[j*ss:][:n] {
			kT[c*ld+j] = x
		}
	}
}
