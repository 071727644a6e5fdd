package layout_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/split"
)

// ioSuite generates a tiny suite for IO tests (external test package to
// avoid the layout <- split import cycle).
func ioSuite(t *testing.T) []*layout.Design {
	t.Helper()
	designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 0.12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return designs
}

func roundTrip(t *testing.T, d *layout.Design) *layout.Design {
	t.Helper()
	var buf bytes.Buffer
	if err := layout.Save(&buf, d); err != nil {
		t.Fatalf("Save: %v", err)
	}
	ld, err := layout.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return ld
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := ioSuite(t)[0]
	ld := roundTrip(t, d)

	if ld.Name != d.Name {
		t.Errorf("name %q != %q", ld.Name, d.Name)
	}
	if ld.Die() != d.Die() {
		t.Errorf("die %v != %v", ld.Die(), d.Die())
	}
	if len(ld.Netlist.Cells) != len(d.Netlist.Cells) {
		t.Fatalf("cell count %d != %d", len(ld.Netlist.Cells), len(d.Netlist.Cells))
	}
	for i := range d.Netlist.Cells {
		if ld.Netlist.Cells[i].Kind.Name != d.Netlist.Cells[i].Kind.Name {
			t.Fatalf("cell %d kind differs", i)
		}
		if ld.Placement.Origin(i) != d.Placement.Origin(i) {
			t.Fatalf("cell %d origin differs", i)
		}
	}
	if len(ld.Netlist.Nets) != len(d.Netlist.Nets) {
		t.Fatalf("net count differs")
	}
	for i := range d.Netlist.Nets {
		a, b := &d.Netlist.Nets[i], &ld.Netlist.Nets[i]
		if a.Driver != b.Driver || len(a.Sinks) != len(b.Sinks) {
			t.Fatalf("net %d differs", i)
		}
		for s := range a.Sinks {
			if a.Sinks[s] != b.Sinks[s] {
				t.Fatalf("net %d sink %d differs", i, s)
			}
		}
	}
	for i := range d.Routing.Routes {
		a, b := &d.Routing.Routes[i], &ld.Routing.Routes[i]
		if a.TrunkLayer != b.TrunkLayer || a.TrunkA != b.TrunkA || a.TrunkB != b.TrunkB ||
			a.DriverEscape != b.DriverEscape || a.SinkEscape != b.SinkEscape {
			t.Fatalf("route %d header differs", i)
		}
		if len(a.Segments) != len(b.Segments) || len(a.Vias) != len(b.Vias) {
			t.Fatalf("route %d geometry counts differ", i)
		}
		for s := range a.Segments {
			if a.Segments[s] != b.Segments[s] {
				t.Fatalf("route %d segment %d differs", i, s)
			}
		}
		for v := range a.Vias {
			if a.Vias[v] != b.Vias[v] {
				t.Fatalf("route %d via %d differs", i, v)
			}
		}
	}
}

func TestLoadedDesignAttackEquivalence(t *testing.T) {
	// A loaded design must produce byte-identical challenges: same v-pins,
	// same ground truth, same features.
	d := ioSuite(t)[4] // sb18, smallest
	ld := roundTrip(t, d)
	for _, layer := range []int{4, 8} {
		ca, err := split.NewChallenge(d, layer)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := split.NewChallenge(ld, layer)
		if err != nil {
			t.Fatal(err)
		}
		if len(ca.VPins) != len(cb.VPins) {
			t.Fatalf("layer %d: v-pin counts differ", layer)
		}
		for i := range ca.VPins {
			a, b := ca.VPins[i], cb.VPins[i]
			if a.Pos != b.Pos || a.PinLoc != b.PinLoc || a.Match != b.Match ||
				a.Wirelength != b.Wirelength || a.InArea != b.InArea || a.OutArea != b.OutArea {
				t.Fatalf("layer %d: v-pin %d differs after round trip", layer, i)
			}
		}
	}
}

// corruptions mutate a saved design into inputs Load must reject.
var corruptions = []struct {
	name string
	mut  func(string) string
}{
	{"bad header", func(s string) string { return strings.Replace(s, "SML 1", "SML 9", 1) }},
	{"missing design", func(s string) string { return strings.Replace(s, "DESIGN", "DSIGN", 1) }},
	{"unknown kind", func(s string) string {
		i := strings.Index(s, "\nC 0 ")
		j := strings.Index(s[i+3:], " ")
		return s[:i+3] + "0 BOGUS_KIND" + s[i+3+j+len(" NAND2_X1"):]
	}},
	{"truncated", func(s string) string { return s[:len(s)/2] }},
	{"no end", func(s string) string { return strings.Replace(s, "END", "", 1) }},
	{"garbage record", func(s string) string { return strings.Replace(s, "\nEND", "\nXYZZY\nEND", 1) }},
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	d := ioSuite(t)[4]
	var buf bytes.Buffer
	if err := layout.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	for _, c := range corruptions {
		if _, err := layout.Load(strings.NewReader(c.mut(good))); err == nil {
			t.Errorf("%s: corrupt input accepted", c.name)
		}
	}
	// Sanity: the unmutated string loads.
	if _, err := layout.Load(strings.NewReader(good)); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
}

func TestLoadIgnoresCommentsAndBlankLines(t *testing.T) {
	d := ioSuite(t)[4]
	var buf bytes.Buffer
	if err := layout.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	decorated := "# a comment\n\n" + strings.Replace(buf.String(), "CELLS", "# mid comment\nCELLS", 1)
	if _, err := layout.Load(strings.NewReader(decorated)); err != nil {
		t.Fatalf("comments/blank lines rejected: %v", err)
	}
}

// TestLoadBoundsHeaderCounts feeds Load record-count headers far beyond the
// records that follow: it must fail on the missing records without
// reserving memory for the claimed counts.
func TestLoadBoundsHeaderCounts(t *testing.T) {
	const head = "SML 1\nDESIGN x\nDIE 0 0 1000 1000\n"
	inputs := map[string]string{
		"cells 1e8":  head + "CELLS 100000000\nC 0 NAND2_X1 0 0\n",
		"cells 1e12": head + "CELLS 1000000000000\n",
		"nets 1e12":  head + "CELLS 1\nC 0 NAND2_X1 0 0\nNETS 1000000000000\n",
	}
	for name, in := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := layout.Load(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated input accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: Load allocated %d MB for a %d-byte input", name, grew>>20, len(in))
		}
	}
}

// tinyDesign generates a design small enough to seed the fuzzer: a few
// cells and nets, placed and routed by the real generator.
func tinyDesign(t testing.TB) []byte {
	t.Helper()
	d, err := layout.Generate(layout.Profile{
		Name: "tiny", Seed: 3, DieSize: 2000, NumCells: 6, NumNets: 5,
		Clusters: 1, ClusterTightness: 0.5,
		Reach:        []layout.ReachFrac{{Frac: 1, Reach: 0.3}},
		TrunkTargets: layout.TrunkTargets{T9: 1, T78: 1, T56: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := layout.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad checks that Load never panics on outside bytes: any input
// either fails with an error or yields a design that saves and reloads to
// the same text.
func FuzzLoad(f *testing.F) {
	good := tinyDesign(f)
	f.Add(good)
	for _, c := range corruptions {
		f.Add([]byte(c.mut(string(good))))
	}
	f.Add([]byte("SML 1\nDESIGN x\nDIE 0 0 1000 1000\nCELLS 1000000000000\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := layout.Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := layout.Save(&once, d); err != nil {
			t.Fatalf("Save of a loaded design: %v", err)
		}
		d2, err := layout.Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved design: %v", err)
		}
		if err := layout.Save(&twice, d2); err != nil {
			t.Fatalf("Save of a reloaded design: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("save/load round trip is not stable")
		}
	})
}
