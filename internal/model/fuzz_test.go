package model

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// restampArtifact returns a copy of b with the CRC of each payload section
// and of the container recomputed, as far as the section lengths parse, so
// mutations reach the structural checks behind the checksums.
func restampArtifact(b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) < len(artifactMagic)+2+4 {
		return b
	}
	off := len(artifactMagic) + 2
	for sec := 0; sec < 3 && off+4 <= len(b)-4; sec++ {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if n > len(b)-4-off {
			break
		}
		if sec > 0 && n >= 4 {
			p := b[off : off+n]
			binary.LittleEndian.PutUint32(p[n-4:], crc32.ChecksumIEEE(p[:n-4]))
		}
		off += n
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// FuzzUnmarshalArtifact feeds outside bytes to the SPLITMDL container
// decoder: it must return an error and never panic, and an artifact it
// accepts must re-marshal to identical bytes. Seeds are tiny bagging,
// two-level, MLP and logistic artifacts.
func FuzzUnmarshalArtifact(f *testing.F) {
	two := imp11Opts()
	two.TwoLevel = true
	logistic := imp11Opts()
	logistic.Family = FamilyLogistic
	for _, opts := range []TrainOptions{imp11Opts(), two, mlpOpts(), logistic} {
		opts.NumTrees = 2
		opts.TrainCap = 200
		art, _, err := Train(testSpec(f, opts))
		if err != nil {
			f.Fatal(err)
		}
		blob, err := art.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data := restampArtifact(in)
		art, err := UnmarshalArtifact(data)
		if err != nil {
			return
		}
		out, err := art.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of an accepted artifact: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted artifact re-marshals to different bytes:\n got %q\nwant %q", out, data)
		}
	})
}

// TestArtifactRejectsNonCanonicalMeta pins the fix for the first fuzz
// finding (testdata/fuzz/FuzzUnmarshalArtifact): metadata JSON with a
// renamed or case-folded key decoded, and the artifact re-marshalled to
// different bytes than it was loaded from.
func TestArtifactRejectsNonCanonicalMeta(t *testing.T) {
	art, _, err := Train(testSpec(t, imp11Opts()))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range [][2]string{
		{`"seed":`, `"SEED":`},     // case-folded key
		{`"fold":`, `"fxxx":`},     // unknown key
		{`"level":1`, `"level":1`}, // control: unchanged
	} {
		mut := restampArtifact(bytes.Replace(blob, []byte(edit[0]), []byte(edit[1]), 1))
		_, err := UnmarshalArtifact(mut)
		if edit[0] == edit[1] {
			if err != nil {
				t.Fatalf("canonical artifact rejected: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("meta edit %s -> %s: error %v, want a canonical-form rejection", edit[0], edit[1], err)
		}
	}
}
