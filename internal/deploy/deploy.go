// Package deploy serializes an RT3 deployment bundle — the shared
// backbone weights plus one pattern set per V/F level — into a compact
// binary artifact, the object a mobile runtime would flash once and then
// reconfigure in place. The format keeps pattern sets as separate,
// individually-loadable sections, mirroring the run-time property the
// paper measures: a level switch touches only its (tiny) section.
package deploy

import (
	"bytes"
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

// Validate reports structural errors.
func (b *Bundle) Validate() error {
	if len(b.Sets) != len(b.LevelNames) {
		return fmt.Errorf("deploy: %d sets vs %d level names", len(b.Sets), len(b.LevelNames))
	}
	if len(b.Sets) == 0 {
		return fmt.Errorf("deploy: bundle has no pattern sets")
	}
	for i, w := range b.Weights {
		if len(w.Data) != w.Rows*w.Cols {
			return fmt.Errorf("deploy: weight %d data len %d != %dx%d", i, len(w.Data), w.Rows, w.Cols)
		}
	}
	for i, s := range b.Sets {
		if len(s.Patterns) == 0 {
			return fmt.Errorf("deploy: set %d empty", i)
		}
	}
	return nil
}

// WriteTo serializes the bundle. The layout is:
//
//	header: magic u32 | version u32 | nWeights u32 | nSets u32
//	weights: per matrix, name | rows u32 | cols u32 | float64 values
//	sets: per set, level name | sparsity f64 | nPatterns u32 |
//	      per pattern: psize u32 | psize^2 bytes
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	for _, v := range []uint32{magic, version, uint32(len(b.Weights)), uint32(len(b.Sets))} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	for _, m := range b.Weights {
		if err := writeString(cw, m.Name); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, []uint32{uint32(m.Rows), uint32(m.Cols)}); err != nil {
			return cw.n, err
		}
		// one call per matrix: a call per value boxed 16 MB of floats one
		// by one and was most of a deployment's set-up time
		if err := binary.Write(cw, binary.LittleEndian, m.Data); err != nil {
			return cw.n, err
		}
	}
	for i, s := range b.Sets {
		if err := writeString(cw, b.LevelNames[i]); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, math.Float64bits(s.Sparsity)); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(s.Patterns))); err != nil {
			return cw.n, err
		}
		for _, p := range s.Patterns {
			if err := binary.Write(cw, binary.LittleEndian, uint32(p.Size)); err != nil {
				return cw.n, err
			}
			if _, err := cw.Write(p.Bits); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// Read deserializes a bundle written by WriteTo from all of r: the
// input grows as bytes arrive and is then decoded as one piece, so no
// length field inside it sizes an allocation.
func Read(r io.Reader) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return Decode(data)
}

// Decode parses bundle bytes. Every variable-length field is checked
// against the bytes left before it is allocated, so a corrupt length
// costs an error, never memory beyond a multiple of len(data).
func Decode(data []byte) (*Bundle, error) {
	r := bytes.NewReader(data)
	var hdr [4]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("deploy: header: %w", err)
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("deploy: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("deploy: unsupported version %d", hdr[1])
	}
	const maxCount = 1 << 20
	if hdr[2] > maxCount || hdr[3] > maxCount {
		return nil, fmt.Errorf("deploy: implausible counts %d/%d", hdr[2], hdr[3])
	}
	b := &Bundle{}
	for i := uint32(0); i < hdr[2]; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var dims [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
			return nil, err
		}
		if dims[0] > maxCount || dims[1] > maxCount {
			return nil, fmt.Errorf("deploy: implausible dims %dx%d", dims[0], dims[1])
		}
		n := int(dims[0]) * int(dims[1])
		if n > r.Len()/8 {
			return nil, fmt.Errorf("deploy: weight %q is %dx%d but %d bytes are left", name, dims[0], dims[1], r.Len())
		}
		// one call per matrix, as in WriteTo
		vals := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, vals); err != nil {
			return nil, err
		}
		b.Weights = append(b.Weights, WeightMatrix{Name: name, Rows: int(dims[0]), Cols: int(dims[1]), Data: vals})
	}
	for i := uint32(0); i < hdr[3]; i++ {
		level, err := readString(r)
		if err != nil {
			return nil, err
		}
		var spBits uint64
		if err := binary.Read(r, binary.LittleEndian, &spBits); err != nil {
			return nil, err
		}
		var nPat uint32
		if err := binary.Read(r, binary.LittleEndian, &nPat); err != nil {
			return nil, err
		}
		if nPat > maxCount {
			return nil, fmt.Errorf("deploy: implausible pattern count %d", nPat)
		}
		set := &pattern.Set{Sparsity: math.Float64frombits(spBits)}
		for k := uint32(0); k < nPat; k++ {
			var psize uint32
			if err := binary.Read(r, binary.LittleEndian, &psize); err != nil {
				return nil, err
			}
			if psize == 0 || psize > 4096 {
				return nil, fmt.Errorf("deploy: implausible psize %d", psize)
			}
			if int(psize*psize) > r.Len() {
				return nil, fmt.Errorf("deploy: pattern of size %d but %d bytes are left", psize, r.Len())
			}
			p := pattern.NewPattern(int(psize))
			if _, err := io.ReadFull(r, p.Bits); err != nil {
				return nil, err
			}
			set.Patterns = append(set.Patterns, p)
		}
		b.Sets = append(b.Sets, set)
		b.LevelNames = append(b.LevelNames, level)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("deploy: %d bytes after the last set", r.Len())
	}
	return b, b.Validate()
}

// Encode is a convenience wrapper returning the bundle bytes.
func (b *Bundle) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
	n := 2 + len(b.LevelNames[i]) + 8 + 4 // name + sparsity + count
	for _, p := range b.Sets[i].Patterns {
		n += 4 + len(p.Bits)
	}
	return n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("deploy: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r *bytes.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if int(n) > r.Len() {
		return "", fmt.Errorf("deploy: string of %d bytes but %d are left", n, r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
