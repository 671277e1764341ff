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
// scalar loop's; the kernels only run such sums side by side, eight
// independent accumulator chains of 8 (ZMM) or 4 (YMM) lanes.
//
// # Pages
//
// Keys and values live in pages of ld rows (AttendPaged): a KV cache's
// fixed pages, or the batched path's one scratch block (Attend, one
// page of ld >= rows rows). A head-row is two kernel calls, each walking
// the page table itself. The score pass takes the window as a list of
// AttendBlock-key blocks, wherever their pages are, and sums up to four
// of them per feature loop, so a page of one block costs what a longer
// one does. The value pass keeps each context sum in a register from
// the window's first page to its last.
//
// # Twins
//
// Three twins compute the same bits, picked once from CPUID/XCR0 by
// attendGate: avx512 runs the ZMM kernels, avx the YMM kernels, go the
// portable loops (vecMatGo, page by page). Their sums need no FMA3.
//
// # Padding
//
// The score pass always reads whole blocks of AttendBlock key rows: a
// page must be readable up to its rows rounded up to a block (a KV page
// is a whole number of blocks, the batched path pads its scratch). What
// the lanes past the window hold — stale rows of a truncated cache, the
// next sequence's keys, NaN — never reaches a stored result: lanes do
// not mix, and only the window's scores are stored. The value pass
// reads only the head's columns.
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

// AttendBlock is the number of key rows a score block holds; key
// storage is padded to a multiple of it, and a page of several holds a
// whole number of blocks.
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
// Allocation-free. It is AttendPaged over one page of ld >= rows rows.
func Attend(out, q, kT []float64, ld int, v []float64, vs, rows int, scale float64, p []float64) {
	attend(out, q, [][]float64{kT}, 0, [][]float64{v}, 0, ld, vs, rows, scale, p, attendHost)
}

// AttendPaged is Attend over key and value rows stored in pages of ld
// rows each, ld a multiple of AttendBlock when the window spans more
// than one page: page i holds rows [i*ld, (i+1)*ld), its keys
// feature-major from pages[i][ko] (feature c of its row j at
// pages[i][ko+c*ld+j]) and its values row-major from pages[i][vo] at
// row stride vs. Every score and context element is the one ascending
// sum a single block would run, so the result is Attend's over the same
// rows, bit for bit.
func AttendPaged(out, q []float64, pages [][]float64, ko, vo, ld, vs, rows int, scale float64, p []float64) {
	attend(out, q, pages, ko, pages, vo, ld, vs, rows, scale, p, attendHost)
}

// attend is AttendPaged with the key and value pages apart and the twin
// explicit, so tests can hold each twin to the naive reference. Its
// softmax runs the same twin of the vector math, or the widest below it
// this host has.
func attend(out, q []float64, k [][]float64, ko int, v [][]float64, vo, ld, vs, rows int, scale float64, p []float64, kern isa) {
	hd := len(q)
	n := (rows + ld - 1) / max(ld, 1) // pages the window spans
	ok := rows >= 1 && hd > 0 && len(out) == hd && len(p) >= rows && ld >= 1 && (n == 1 || ld%AttendBlock == 0) &&
		len(k) >= n && len(v) >= n
	for i, j0 := 0, 0; ok && j0 < rows; i, j0 = i+1, j0+ld {
		r := min(ld, rows-j0)
		ok = ko >= 0 && vo >= 0 && len(k[i]) >= ko+(hd-1)*ld+AttendPadded(r) && len(v[i]) >= vo+(r-1)*vs+hd
	}
	if !ok {
		panic(fmt.Sprintf("mat: Attend head dim %d/%d over %d rows in %d-row pages: %d key and %d value pages, %d scores",
			hd, len(out), rows, ld, len(k), len(v), len(p)))
	}
	p = p[:rows]
	switch kern {
	case isaZ:
		attendScoresZ(&p[0], &q[0], hd, &k[0], ko, ld, rows, scale)
	case isaAVX:
		attendScoresAVX(&p[0], &q[0], hd, &k[0], ko, ld, rows, scale)
	default:
		for i, j0 := 0, 0; j0 < rows; i, j0 = i+1, j0+ld {
			vecMatGo(p[j0:min(j0+ld, rows)], q, k[i][ko:], ld, scale, false)
		}
	}
	softmax(p, p, min(kern, tailHost))
	switch kern {
	case isaZ:
		attendValuesZ(&out[0], &p[0], hd, &v[0], vo, ld, vs, rows)
	case isaAVX:
		attendValuesAVX(&out[0], &p[0], hd, &v[0], vo, ld, vs, rows)
	default:
		for i, j0 := 0, 0; j0 < rows; i, j0 = i+1, j0+ld {
			vecMatGo(out, p[j0:min(j0+ld, rows)], v[i][vo:], vs, 1, i > 0)
		}
	}
}

// vecMatGo is the portable kernel, the loop nest the assembly kernels
// replicate: dst = scale * (a @ B) for the row-major len(a) x len(dst)
// matrix b at row stride stride, AttendBlock columns at a time, one
// accumulator per column summing in ascending row order. It reads only
// the len(dst) real columns. With acc set each sum starts from dst
// instead of 0, which carries a sum stored at scale 1 on over the next
// page's rows unchanged (a stored float64 reloads exactly, and the
// multiply by 1 is exact). The attention core stays unfused (VMULPD
// then VADDPD): the conversion keeps a port that fuses x*y + z on its
// own (arm64 and others) to the same rounding.
func vecMatGo(dst, a, b []float64, stride int, scale float64, acc bool) {
	for j0 := 0; j0 < len(dst); j0 += AttendBlock {
		var sum [AttendBlock]float64
		w := min(AttendBlock, len(dst)-j0)
		if acc {
			copy(sum[:w], dst[j0:])
		}
		for i, av := range a {
			for l, bv := range b[i*stride+j0:][:w] {
				sum[l] += float64(av * bv)
			}
		}
		for l, s := range sum[:w] {
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
