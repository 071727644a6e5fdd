package ml

import (
	"bytes"
	"encoding"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// learnerCodecs are the payload decoders of every learner family.
var learnerCodecs = []struct {
	name   string
	decode func([]byte) (encoding.BinaryMarshaler, error)
}{
	{"ensemble", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalEnsemble(b) }},
	{"mlp", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalMLP(b) }},
	{"logistic", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalLogistic(b) }},
}

// FuzzUnmarshalLearners feeds outside bytes to the MLEN, MLNN and MLLR
// decoders. Each must return an error and never panic, and a blob it
// accepts must re-marshal to identical bytes. The harness re-stamps the
// trailing CRC, so mutations reach the structural checks behind it.
func FuzzUnmarshalLearners(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	ds := noisyData(200, 0.2, rng)
	b, err := TrainBagging(ds, 3, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		f.Fatal(err)
	}
	nn, err := TrainMLP(ds, MLPOptions{Hidden: 2, Epochs: 2}, rng)
	if err != nil {
		f.Fatal(err)
	}
	lg, err := TrainLogistic(ds, LogisticOptions{Epochs: 2}, rng)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []encoding.BinaryMarshaler{b.Compile(), nn, lg} {
		blob, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds (%v)", err)
	}
	for _, g := range goldens {
		blob, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append([]byte(nil), in...)
		if len(data) >= 4 {
			recrc(data)
		}
		for _, c := range learnerCodecs {
			m, err := c.decode(data)
			if err != nil {
				continue
			}
			out, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal of an accepted blob: %v", c.name, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted blob re-marshals to different bytes", c.name)
			}
		}
	})
}
