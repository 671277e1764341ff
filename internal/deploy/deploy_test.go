package deploy

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rt3/internal/pattern"
)

func sampleBundle(seed int64) *Bundle {
	rng := rand.New(rand.NewSource(seed))
	w := WeightMatrix{Name: "enc.0.wq.W", Rows: 4, Cols: 6, Data: make([]float64, 24)}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	return &Bundle{
		Weights:    []WeightMatrix{w},
		Sets:       []*pattern.Set{pattern.RandomSet(4, 0.5, 2, rng), pattern.RandomSet(4, 0.75, 2, rng)},
		LevelNames: []string{"l6", "l3"},
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		b := sampleBundle(seed)
		data, err := b.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if len(got.Weights) != 1 || got.Weights[0].Name != "enc.0.wq.W" {
			return false
		}
		for i, v := range got.Weights[0].Data {
			if v != b.Weights[0].Data[i] {
				return false
			}
		}
		if len(got.Sets) != 2 || got.LevelNames[1] != "l3" {
			return false
		}
		for si, s := range got.Sets {
			for pi, p := range s.Patterns {
				if !p.Equal(b.Sets[si].Patterns[pi]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	b := sampleBundle(1)
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
}

func TestValidation(t *testing.T) {
	b := sampleBundle(2)
	b.LevelNames = b.LevelNames[:1]
	if err := b.Validate(); err == nil {
		t.Fatal("mismatched level names accepted")
	}
	b = sampleBundle(3)
	b.Sets = nil
	b.LevelNames = nil
	if err := b.Validate(); err == nil {
		t.Fatal("empty bundle accepted")
	}
	b = sampleBundle(4)
	b.Weights[0].Data = b.Weights[0].Data[:5]
	if err := b.Validate(); err == nil {
		t.Fatal("short weight data accepted")
	}
}

// hugeDims is a 27-byte input with a valid header and one weight named
// "w" whose dims claim 2^40 values: decoding it must cost an error, not
// the 8 TB allocation its length fields ask for.
func hugeDims() []byte {
	var buf bytes.Buffer
	for _, v := range []any{
		[]uint32{magic, version, 1, 1}, uint16(1), []byte("w"), []uint32{1 << 20, 1 << 20},
	} {
		_ = binary.Write(&buf, binary.LittleEndian, v) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
		hugeDims(),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	b := sampleBundle(5)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, data...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := sampleBundle(6)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// FuzzDecodeBundle: Decode never panics on arbitrary bytes, allocates
// no more than a multiple of its input (a length field never sizes an
// allocation the input cannot fill), and whatever it accepts re-encodes
// to exactly the bytes it was given.
func FuzzDecodeBundle(f *testing.F) {
	valid, err := sampleBundle(8).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 15, 16, 27, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add(hugeDims())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := Decode(data)
		runtime.ReadMemStats(&after)
		// binary.Read stages each field in a buffer of its own, so a
		// bundle of many one-byte patterns costs tens of bytes per input
		// byte; the constant covers the test process's own background
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > budget {
			t.Fatalf("Decode of %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted bundle re-encodes to %d bytes that differ from its %d input bytes", len(enc), len(data))
		}
	})
}

func TestSetBytesTiny(t *testing.T) {
	b := sampleBundle(7)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.SetBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	// the run-time switch section must be a small fraction of the bundle
	// (weights dominate) — the paper's lightweight-switch property.
	if n*4 > len(data) {
		t.Fatalf("set section %dB not small vs bundle %dB", n, len(data))
	}
	if _, err := b.SetBytes(9); err == nil {
		t.Fatal("out-of-range set accepted")
	}
}
