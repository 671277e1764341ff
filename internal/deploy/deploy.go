// Package deploy serializes an RT3 deployment bundle — the shared
// backbone weights plus one pattern set per V/F level — into a compact
// binary artifact, the object a mobile runtime would flash once and then
// reconfigure in place. The format keeps pattern sets as separate,
// individually-loadable sections, mirroring the run-time property the
// paper measures: a level switch touches only its (tiny) section.
package deploy

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rt3/internal/pattern"
)

// magic and version identify the bundle format.
const (
	magic   = 0x52543342 // "RT3B"
	version = 1
)

// maxCount bounds every count and matrix dimension, and maxPSize every
// pattern size, that Decode accepts (and so Validate lets Encode write).
const (
	maxCount = 1 << 20
	maxPSize = 4096
)

// Bundle is an RT3 deployment artifact.
type Bundle struct {
	// Weights holds each prunable matrix's dense backbone values
	// (masked positions are zero), row-major with explicit dims.
	Weights []WeightMatrix
	// Sets holds one pattern set per V/F level, fastest level first.
	Sets []*pattern.Set
	// LevelNames names the V/F level of each set ("l6", ...).
	LevelNames []string
}

// WeightMatrix is one serialized backbone matrix.
type WeightMatrix struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Validate reports structural errors: everything that would make the
// bundle fail to encode, or encode to bytes Decode rejects, or build no
// kernels (a set whose patterns disagree on their size).
func (b *Bundle) Validate() error {
	if len(b.Sets) != len(b.LevelNames) {
		return fmt.Errorf("deploy: %d sets vs %d level names", len(b.Sets), len(b.LevelNames))
	}
	if len(b.Sets) == 0 {
		return fmt.Errorf("deploy: bundle has no pattern sets")
	}
	for i, w := range b.Weights {
		if w.Rows < 0 || w.Cols < 0 || w.Rows > maxCount || w.Cols > maxCount {
			return fmt.Errorf("deploy: weight %d has implausible dims %dx%d", i, w.Rows, w.Cols)
		}
		if len(w.Data) != w.Rows*w.Cols {
			return fmt.Errorf("deploy: weight %d data len %d != %dx%d", i, len(w.Data), w.Rows, w.Cols)
		}
		if err := checkString(w.Name); err != nil {
			return err
		}
	}
	for i, s := range b.Sets {
		if len(s.Patterns) == 0 {
			return fmt.Errorf("deploy: set %d empty", i)
		}
		if err := checkString(b.LevelNames[i]); err != nil {
			return err
		}
		psize := s.Patterns[0].Size
		for k, p := range s.Patterns {
			if p.Size != psize {
				return fmt.Errorf("deploy: set %d pattern %d has size %d, pattern 0 has %d", i, k, p.Size, psize)
			}
			if p.Size <= 0 || p.Size > maxPSize || len(p.Bits) != p.Size*p.Size {
				return fmt.Errorf("deploy: set %d pattern %d of size %d has %d bits", i, k, p.Size, len(p.Bits))
			}
		}
	}
	return nil
}

// Encode serializes the bundle. The layout is:
//
//	header: magic u32 | version u32 | nWeights u32 | nSets u32
//	weights: per matrix, name | rows u32 | cols u32 | float64 values
//	sets: per set, level name | sparsity f64 | nPatterns u32 |
//	      per pattern: psize u32 | psize^2 bytes
//
// All integers and floats are little-endian; a name is a u16 length and
// its bytes. The output is sized exactly before the first field is
// appended, so it is allocated once.
func (b *Bundle) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := 16
	for _, m := range b.Weights {
		n += 2 + len(m.Name) + 8 + 8*len(m.Data)
	}
	for i := range b.Sets {
		n += b.setBytes(i)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, n)
	buf = le.AppendUint32(buf, magic)
	buf = le.AppendUint32(buf, version)
	buf = le.AppendUint32(buf, uint32(len(b.Weights)))
	buf = le.AppendUint32(buf, uint32(len(b.Sets)))
	for _, m := range b.Weights {
		buf = appendString(buf, m.Name)
		buf = le.AppendUint32(buf, uint32(m.Rows))
		buf = le.AppendUint32(buf, uint32(m.Cols))
		for _, v := range m.Data {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for i, s := range b.Sets {
		buf = appendString(buf, b.LevelNames[i])
		buf = le.AppendUint64(buf, math.Float64bits(s.Sparsity))
		buf = le.AppendUint32(buf, uint32(len(s.Patterns)))
		for _, p := range s.Patterns {
			buf = le.AppendUint32(buf, uint32(p.Size))
			buf = append(buf, p.Bits...)
		}
	}
	return buf, nil
}

// WriteTo writes the bytes of Encode to w.
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	data, err := b.Encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// Decode parses bundle bytes. Every variable-length field is checked
// against the bytes left before it is allocated, so a corrupt length
// costs an error, never memory beyond a multiple of len(data). Values
// are read straight from data, with no staging copy.
func Decode(data []byte) (*Bundle, error) {
	r := &reader{data: data}
	var hdr [4]uint32
	for i := range hdr {
		v, err := r.uint32()
		if err != nil {
			return nil, fmt.Errorf("deploy: header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("deploy: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("deploy: unsupported version %d", hdr[1])
	}
	if hdr[2] > maxCount || hdr[3] > maxCount {
		return nil, fmt.Errorf("deploy: implausible counts %d/%d", hdr[2], hdr[3])
	}
	b := &Bundle{}
	for i := uint32(0); i < hdr[2]; i++ {
		name, err := r.string()
		if err != nil {
			return nil, err
		}
		rows, err := r.uint32()
		if err != nil {
			return nil, err
		}
		cols, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if rows > maxCount || cols > maxCount {
			return nil, fmt.Errorf("deploy: implausible dims %dx%d", rows, cols)
		}
		n := int(rows) * int(cols)
		if n > r.len()/8 {
			return nil, fmt.Errorf("deploy: weight %q is %dx%d but %d bytes are left", name, rows, cols, r.len())
		}
		src := r.next(8 * n)
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k : 8*k+8]))
		}
		b.Weights = append(b.Weights, WeightMatrix{Name: name, Rows: int(rows), Cols: int(cols), Data: vals})
	}
	for i := uint32(0); i < hdr[3]; i++ {
		level, err := r.string()
		if err != nil {
			return nil, err
		}
		spBits, err := r.uint64()
		if err != nil {
			return nil, err
		}
		nPat, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if nPat > maxCount {
			return nil, fmt.Errorf("deploy: implausible pattern count %d", nPat)
		}
		set := &pattern.Set{Sparsity: math.Float64frombits(spBits)}
		for k := uint32(0); k < nPat; k++ {
			psize, err := r.uint32()
			if err != nil {
				return nil, err
			}
			if psize == 0 || psize > maxPSize {
				return nil, fmt.Errorf("deploy: implausible psize %d", psize)
			}
			if int(psize*psize) > r.len() {
				return nil, fmt.Errorf("deploy: pattern of size %d but %d bytes are left", psize, r.len())
			}
			p := pattern.NewPattern(int(psize))
			copy(p.Bits, r.next(len(p.Bits)))
			set.Patterns = append(set.Patterns, p)
		}
		b.Sets = append(b.Sets, set)
		b.LevelNames = append(b.LevelNames, level)
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("deploy: %d bytes after the last set", r.len())
	}
	return b, b.Validate()
}

// WeightByName returns the backbone matrix with the given parameter name.
func (b *Bundle) WeightByName(name string) (*WeightMatrix, error) {
	for i := range b.Weights {
		if b.Weights[i].Name == name {
			return &b.Weights[i], nil
		}
	}
	return nil, fmt.Errorf("deploy: no weight named %q", name)
}

// SetBytes returns the serialized size of the i-th pattern-set section —
// the bytes a run-time level switch must move.
func (b *Bundle) SetBytes(i int) (int, error) {
	if i < 0 || i >= len(b.Sets) {
		return 0, fmt.Errorf("deploy: set %d out of range %d", i, len(b.Sets))
	}
	return b.setBytes(i), nil
}

// setBytes is the encoded size of set i: name, sparsity, count and
// every pattern's size and bits.
func (b *Bundle) setBytes(i int) int {
	n := 2 + len(b.LevelNames[i]) + 8 + 4
	for _, p := range b.Sets[i].Patterns {
		n += 4 + len(p.Bits)
	}
	return n
}

// checkString rejects a name too long for its u16 length.
func checkString(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("deploy: string too long (%d)", len(s))
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// reader walks the bytes of a bundle; a fixed-size field cut short by
// the end of the input is io.ErrUnexpectedEOF.
type reader struct {
	data []byte
	off  int
}

func (r *reader) len() int { return len(r.data) - r.off }

// next returns the following n bytes, which the caller has checked are
// there.
func (r *reader) next(n int) []byte {
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) uint32() (uint32, error) {
	if r.len() < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint32(r.next(4)), nil
}

func (r *reader) uint64() (uint64, error) {
	if r.len() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	return binary.LittleEndian.Uint64(r.next(8)), nil
}

func (r *reader) string() (string, error) {
	if r.len() < 2 {
		return "", io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(r.next(2)))
	if n > r.len() {
		return "", fmt.Errorf("deploy: string of %d bytes but %d are left", n, r.len())
	}
	return string(r.next(n)), nil
}
