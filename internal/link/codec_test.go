package link

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
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
	data := f.Encode()
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
	if !bytes.Equal(data, f.Encode()) {
		t.Error("re-encoding the same value changed bytes")
	}
	if !bytes.Equal(data, got.Encode()) {
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
	return DecodeFacts(f.Encode())
}

// payload lays out a facts payload after the magic, field by field: a
// byte as itself, an int or uint64 as a uvarint, a string length-prefixed.
func payload(fields ...any) []byte {
	b := []byte(factsMagic)
	for _, f := range fields {
		switch v := f.(type) {
		case byte:
			b = append(b, v)
		case int:
			b = binary.AppendUvarint(b, uint64(v))
		case uint64:
			b = binary.AppendUvarint(b, v)
		case string:
			b = appendString(b, v)
		default:
			panic(fmt.Sprintf("payload field %T", f))
		}
	}
	return b
}

// oldGobPayload is what the gob codec this layout replaced wrote for a
// one-fact set.
func oldGobPayload(t *testing.T) []byte {
	type wireFact struct {
		Kind      uint8
		File      string
		Line, Col int32
		Sig       string
		Cond      int32
	}
	type wireSymbol struct {
		Name  string
		Facts []wireFact
	}
	type wireFacts struct {
		Unit    string
		Nodes   []cond.FormulaNode
		Symbols []wireSymbol
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&wireFacts{
		Unit:    "u.c",
		Nodes:   []cond.FormulaNode{{Op: uint8(cond.FVar), Name: "CONFIG_A"}},
		Symbols: []wireSymbol{{Name: "x", Facts: []wireFact{{File: "u.c", Line: 1, Col: 1, Cond: 0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Poisoned payloads must error, never panic. Each payload below is unit
// name, node table, then symbols; a node is op, name, arg count and args;
// a fact is kind, file, line, col, sig and condition index + 1.
func TestCodecPoisonedPayloads(t *testing.T) {
	not, and, tru, vr := byte(cond.FNot), byte(cond.FAnd), byte(cond.FTrue), byte(cond.FVar)
	good := sampleFacts().Encode()
	cases := map[string][]byte{
		"not a payload":                []byte("definitely not a facts payload"),
		"truncated":                    good[:len(good)/2],
		"trailing bytes":               append(good[:len(good):len(good)], 0),
		"count beyond the payload":     payload("u.c", uint64(1)<<62),
		"gob payload of the old codec": oldGobPayload(t),
		"forward formula arg":          payload("", 2, not, "", 1, 1, tru, "", 0, 0),
		"self formula arg":             payload("", 1, and, "", 2, 0, 0, 0),
		"negative formula arg":         payload("", 1, not, "", 1, uint64(1<<64-2), 0), // -2 as a two's-complement uint64
		"bad op":                       payload("", 1, byte(250), "", 0, 0),
		"negation without argument":    payload("", 1, not, "", 0, 1, "x", 1, byte(KindDef), "", 0, 0, "", 1),
		"variable with argument":       payload("", 2, tru, "", 0, vr, "A", 1, 0, 0),
		"cond index out of range":      payload("", 0, 1, "x", 1, byte(KindDef), "", 0, 0, "", 6),
		"bad kind":                     payload("", 0, 1, "x", 1, byte(99), "", 0, 0, "", 0),
	}
	// A well-formed payload in the same hand-built form decodes, so the
	// cases fail on their poisoned field, not on the form.
	if _, err := DecodeFacts(payload("u.c", 2, vr, "A", 0, not, "", 1, 0, 1, "x", 1, byte(KindDef), "u.c", 1, 5, "int @", 2)); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	for name, data := range cases {
		if _, err := DecodeFacts(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestEntryCodec round-trips a stored link entry and rejects every
// truncation of it, so a damaged artifact reads as a miss, never as a
// shorter read set.
func TestEntryCodec(t *testing.T) {
	in := &Entry{
		Deps:   []hcache.Dep{{Path: "a.c", Hash: hcache.Hash([]byte("a"))}, {Path: "inc/p.h", Hash: hcache.Hash(nil)}},
		Probes: []hcache.Probe{{Path: "p.h", Exists: false}, {Path: "inc/p.h", Exists: true}},
		Facts:  sampleFacts(),
	}
	data := in.Encode()
	out, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Deps, in.Deps) || !reflect.DeepEqual(out.Probes, in.Probes) || !bytes.Equal(out.Facts.Encode(), in.Facts.Encode()) {
		t.Errorf("round trip: %+v, want %+v", out, in)
	}
	for n := range data {
		if _, err := DecodeEntry(data[:n]); err == nil {
			t.Errorf("truncated to %d of %d bytes: decoded", n, len(data))
		}
	}
	if _, err := DecodeEntry(in.Facts.Encode()); err == nil {
		t.Error("a facts payload decoded as an entry")
	}
}

// TestDecodeFactsAllocs bounds DecodeFacts' allocations by the payload's
// size: a Formula and its Args per node, a fact slice per symbol, and a
// constant for the payload copy, the result and the tables. A codec that
// compiles a decoder per payload, as gob does, would exceed it.
func TestDecodeFactsAllocs(t *testing.T) {
	f := &Facts{Unit: "u.c"}
	a, b := fvar("CONFIG_A"), fvar("CONFIG_B")
	conds := []*cond.Formula{a, fand(a, b), fnot(a), nil, fand(b, fnot(a))}
	for i := 0; i < 20; i++ {
		s := Symbol{Name: fmt.Sprintf("sym%02d", i)}
		for j := 0; j < 3; j++ {
			s.Facts = append(s.Facts, Fact{Kind: FactKind(j), File: "u.c", Line: 10*i + j, Col: 1, Sig: "int @", Cond: conds[(i+j)%len(conds)]})
		}
		f.Symbols = append(f.Symbols, s)
	}
	data := f.Encode()
	var table cond.FormulaTable[cond.FormulaNode]
	for _, c := range conds {
		table.Add(c)
	}
	nodes, symbols := len(table.Nodes), len(f.Symbols)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFacts(data); err != nil {
			t.Fatal(err)
		}
	})
	if bound := 2*nodes + symbols + 10; allocs > float64(bound) {
		t.Errorf("DecodeFacts: %.0f allocations for %d nodes and %d symbols, want at most %d", allocs, nodes, symbols, bound)
	}
}

// FuzzFactsCodec drives DecodeFacts with arbitrary bytes (must never panic;
// anything it accepts must re-encode and decode to the same byte form) —
// seeded into the CI fuzz smoke alongside the parser fuzzers. The first
// seed shares formulas across facts and has a fact with no condition.
func FuzzFactsCodec(f *testing.F) {
	good := sampleFacts().Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		facts, err := DecodeFacts(data)
		if err != nil {
			return
		}
		re := facts.Encode()
		again, err := DecodeFacts(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), re) {
			t.Fatal("re-encoding a decoded payload changed its bytes")
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
