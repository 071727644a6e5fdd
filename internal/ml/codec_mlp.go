package ml

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary codec for trained MLPs, mirroring the ensemble codec's contract:
// versioned, CRC-checked, bit-exact round-trips.
//
//	magic    "MLNN"                      4 bytes
//	version  uint16 little-endian        currently 1
//	hidden   uint32                      hidden-layer width
//	m        uint32                      feature-subset size
//	features m × uint32                  feature column of each input
//	w1       hidden × m × float64       first layer (standardisation folded)
//	b1       hidden × float64
//	w2       hidden × float64
//	b2       float64
//	crc      uint32                      IEEE CRC-32 of everything above
//
// Weights are raw IEEE-754 bits, so a decoded network's Prob/ProbBatch
// results are bit-identical to the encoded one's. Decoding rejects
// truncation, trailing garbage, unknown versions, checksum mismatches, and
// structurally invalid payloads (zero widths, negative feature columns,
// non-finite weights).
const (
	mlpMagic = "MLNN"
	// MLPCodecVersion is the current on-disk MLP format version.
	MLPCodecVersion = 1
)

const mlpHeaderLen = 4 + 2 + 4 + 4 // magic, version, hidden, m

// MarshalBinary encodes the network in the versioned binary format above.
func (nn *MLP) MarshalBinary() ([]byte, error) {
	if nn.hidden <= 0 || len(nn.features) == 0 {
		return nil, fmt.Errorf("ml: cannot encode an empty mlp")
	}
	h, m := nn.hidden, len(nn.features)
	buf := make([]byte, 0, mlpHeaderLen+4*m+8*(h*m+2*h+1)+4)
	buf = append(buf, mlpMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, MLPCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	for _, f := range nn.features {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
	}
	for _, v := range nn.w1 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range nn.b1 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range nn.w2 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(nn.b2))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// UnmarshalMLP decodes a network encoded by MarshalBinary, validating the
// checksum and structural invariants. The returned MLP is bit-identical to
// the encoded one.
func UnmarshalMLP(data []byte) (*MLP, error) {
	if len(data) < mlpHeaderLen+4 {
		return nil, fmt.Errorf("ml: mlp blob truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != mlpMagic {
		return nil, fmt.Errorf("ml: not an mlp blob (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != MLPCodecVersion {
		return nil, fmt.Errorf("ml: unsupported mlp codec version %d (have %d)",
			v, MLPCodecVersion)
	}
	h := int(binary.LittleEndian.Uint32(data[6:]))
	m := int(binary.LittleEndian.Uint32(data[10:]))
	want := mlpHeaderLen + 4*m + 8*(h*m+2*h+1) + 4
	if h <= 0 || m <= 0 || h > 1<<20 || m > 1<<20 || len(data) != want {
		return nil, fmt.Errorf("ml: mlp blob is %d bytes, want %d for hidden %d / %d features",
			len(data), want, h, m)
	}
	if got, stored := crc32.ChecksumIEEE(data[:len(data)-4]),
		binary.LittleEndian.Uint32(data[len(data)-4:]); got != stored {
		return nil, fmt.Errorf("ml: mlp blob checksum mismatch (corrupted payload)")
	}
	nn := &MLP{
		w1: make([]float64, h*m), b1: make([]float64, h),
		w2:       make([]float64, h),
		features: make([]int, m),
		hidden:   h,
	}
	off := mlpHeaderLen
	for i := range nn.features {
		nn.features[i] = int(int32(binary.LittleEndian.Uint32(data[off:])))
		off += 4
	}
	readF64 := func(dst []float64) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
	}
	readF64(nn.w1)
	readF64(nn.b1)
	readF64(nn.w2)
	nn.b2 = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	if err := nn.validate(); err != nil {
		return nil, err
	}
	return nn, nil
}

// validate checks the invariants TrainMLP establishes: non-negative feature
// columns and finite weights everywhere. The CRC already caught random
// corruption; this catches deliberate or wildly unlucky structural damage
// that would make Prob read out of bounds or emit NaN scores.
func (nn *MLP) validate() error {
	for i, f := range nn.features {
		if f < 0 {
			return fmt.Errorf("ml: mlp feature column %d is negative (%d)", i, f)
		}
	}
	for _, part := range []struct {
		name string
		vs   []float64
	}{{"w1", nn.w1}, {"b1", nn.b1}, {"w2", nn.w2}, {"b2", []float64{nn.b2}}} {
		for i, v := range part.vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: mlp %s[%d] is not finite (%v)", part.name, i, v)
			}
		}
	}
	return nil
}
