package link

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/cond"
	"repro/internal/hcache"
)

func sampleFacts() *Facts {
	shared := fvar("CONFIG_A")
	f := &Facts{Unit: "u.c", Symbols: []Symbol{
		{Name: "alpha", Facts: []Fact{
			{Kind: KindDef, File: "u.c", Line: 1, Col: 5, Sig: "int @ ( )", Cond: shared},
			{Kind: KindRef, File: "u.c", Line: 7, Col: 3, Cond: fand(shared, fvar("CONFIG_B"))},
		}},
		{Name: "beta", Facts: []Fact{
			{Kind: KindTentative, File: "u.c", Line: 2, Col: 1, Sig: "long @", Cond: fnot(shared)},
			{Kind: KindDecl, File: "u.c", Line: 3, Col: 1, Sig: "long @", Cond: nil},
		}},
	}}
	f.Normalize()
	return f
}

func TestCodecRoundTrip(t *testing.T) {
	f := sampleFacts()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unit != f.Unit || len(got.Symbols) != len(f.Symbols) {
		t.Fatalf("shape mismatch: %+v", got)
	}
	for i, s := range f.Symbols {
		gs := got.Symbols[i]
		if gs.Name != s.Name || len(gs.Facts) != len(s.Facts) {
			t.Fatalf("symbol %d mismatch: %+v vs %+v", i, gs, s)
		}
		for j, fa := range s.Facts {
			ga := gs.Facts[j]
			if ga.Kind != fa.Kind || ga.File != fa.File || ga.Line != fa.Line || ga.Col != fa.Col || ga.Sig != fa.Sig {
				t.Errorf("fact %s[%d] mismatch: %+v vs %+v", s.Name, j, ga, fa)
			}
			switch {
			case (fa.Cond == nil) != (ga.Cond == nil):
				t.Errorf("fact %s[%d] cond nilness differs", s.Name, j)
			case fa.Cond != nil && ga.Cond.String() != fa.Cond.String():
				t.Errorf("fact %s[%d] cond %s != %s", s.Name, j, ga.Cond, fa.Cond)
			}
		}
	}
	// Encoding is deterministic: same facts, same bytes.
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	data3, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data3) {
		t.Error("re-encoding the same value changed bytes")
	}
	if !bytes.Equal(data, data2) {
		t.Error("decode/encode round trip changed bytes")
	}
}

func TestCodecSharingPreserved(t *testing.T) {
	f := sampleFacts()
	got, err := roundTrip(f)
	if err != nil {
		t.Fatal(err)
	}
	// alpha's two facts share the CONFIG_A subformula; decoding must restore
	// pointer sharing, not expand the DAG into trees.
	a := got.Symbols[0].Facts[0].Cond
	b := got.Symbols[0].Facts[1].Cond
	if b.Op != cond.FAnd || b.Args[0] != a {
		t.Fatalf("shared subformula not restored by pointer: %v vs %v", a, b)
	}
}

func roundTrip(f *Facts) (*Facts, error) {
	data, err := f.Encode()
	if err != nil {
		return nil, err
	}
	return DecodeFacts(data)
}

// poisoned gob payloads must error, never panic.
func TestCodecPoisonedPayloads(t *testing.T) {
	encode := func(w *wireFacts) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"not gob":   []byte("definitely not a gob stream"),
		"truncated": nil, // filled below
		"forward formula arg": encode(&wireFacts{
			Nodes: []wireFNode{{Op: uint8(cond.FNot), Args: []int32{1}}, {Op: uint8(cond.FTrue)}},
		}),
		"self formula arg": encode(&wireFacts{
			Nodes: []wireFNode{{Op: uint8(cond.FAnd), Args: []int32{0, 0}}},
		}),
		"negative formula arg": encode(&wireFacts{
			Nodes: []wireFNode{{Op: uint8(cond.FNot), Args: []int32{-2}}},
		}),
		"bad op": encode(&wireFacts{
			Nodes: []wireFNode{{Op: 250}},
		}),
		"negation without argument": encode(&wireFacts{
			Nodes:   []wireFNode{{Op: uint8(cond.FNot)}},
			Symbols: []wireSymbol{{Name: "x", Facts: []wireFact{{Kind: uint8(KindDef), Cond: 0}}}},
		}),
		"variable with argument": encode(&wireFacts{
			Nodes: []wireFNode{{Op: uint8(cond.FTrue)}, {Op: uint8(cond.FVar), Name: "A", Args: []int32{0}}},
		}),
		"cond index out of range": encode(&wireFacts{
			Symbols: []wireSymbol{{Name: "x", Facts: []wireFact{{Cond: 5}}}},
		}),
		"bad kind": encode(&wireFacts{
			Symbols: []wireSymbol{{Name: "x", Facts: []wireFact{{Kind: 99, Cond: -1}}}},
		}),
	}
	good, err := sampleFacts().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases["truncated"] = good[:len(good)/2]
	for name, data := range cases {
		if _, err := DecodeFacts(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// FuzzFactsCodec drives DecodeFacts with arbitrary bytes (must never panic;
// anything it accepts must re-encode and decode to the same byte form) —
// seeded into the CI fuzz smoke alongside the parser fuzzers.
func FuzzFactsCodec(f *testing.F) {
	good, err := sampleFacts().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		facts, err := DecodeFacts(data)
		if err != nil {
			return
		}
		re, err := facts.Encode()
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if _, err := DecodeFacts(re); err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
	})
}

// TestCanonIDStability: the same boolean function exported from two spaces
// with different variable-creation orders must canonicalize to one id — the
// property that lets the linker join conditions across unit spaces.
func TestCanonIDStability(t *testing.T) {
	exportFrom := func(order []string) *cond.Formula {
		s := cond.NewSpace(cond.ModeBDD)
		vars := make(map[string]cond.Cond)
		for _, n := range order {
			vars[n] = s.Var(n)
		}
		// (A & B) | !C built from differently-ordered spaces.
		c := s.Or(s.And(vars["A"], vars["B"]), s.Not(vars["C"]))
		return s.Export(c)
	}
	f1 := exportFrom([]string{"A", "B", "C"})
	f2 := exportFrom([]string{"C", "B", "A"})
	canon := hcache.NewCanon()
	id1, id2 := canon.ID(f1), canon.ID(f2)
	if id1 != id2 {
		t.Fatalf("equal functions got distinct canon ids: %q vs %q", id1, id2)
	}
	// A genuinely different function must not collide.
	s := cond.NewSpace(cond.ModeBDD)
	other := s.Export(s.And(s.Var("A"), s.Var("C")))
	if id3 := canon.ID(other); id3 == id1 {
		t.Fatalf("distinct functions share a canon id: %q", id3)
	}
	// The codec round trip preserves the function, hence the id.
	facts := &Facts{Unit: "u.c", Symbols: []Symbol{{Name: "s", Facts: []Fact{
		{Kind: KindDef, File: "u.c", Line: 1, Col: 1, Cond: f1},
	}}}}
	got, err := roundTrip(facts)
	if err != nil {
		t.Fatal(err)
	}
	if id := canon.ID(got.Symbols[0].Facts[0].Cond); id != id1 {
		t.Fatalf("round trip changed canon id: %q vs %q", id, id1)
	}
}
