package link

// This file serializes link facts for the daemon's durable fact store
// (internal/store) and the /v1/link wire. Conditions are cond.Formula DAGs
// with pointer sharing; the wire form flattens every formula of a Facts
// value into one indexed node table so the sharing survives the round trip
// (a gob of the raw pointer graph would expand shared subformulas into
// trees, and repeated conditions — the common case, since one #ifdef guards
// many declarations — would encode once per fact instead of once).
//
// Decoding is defensive: the payload may come from a corrupt or hostile
// store, so the formula table is validated by cond.RebuildFormulas and
// every fact's kind and condition index is range checked. Poisoned payloads
// produce errors, never panics.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cond"
)

// wireFacts is the persisted form of Facts.
type wireFacts struct {
	Unit    string
	Nodes   []wireFNode // formula DAG table shared by every fact condition
	Symbols []wireSymbol
}

// wireFNode is one formula node (cond.WireNode); Args index strictly
// earlier Nodes entries.
type wireFNode cond.FormulaNode

type wireSymbol struct {
	Name  string
	Facts []wireFact
}

type wireFact struct {
	Kind uint8
	File string
	Line int32
	Col  int32
	Sig  string
	Cond int32 // index into wireFacts.Nodes; -1 when the fact carries none
}

// Encode serializes the facts. Callers should Normalize first (extraction
// already emits canonical order) so equal fact sets encode byte-identically
// — the property the daemon's restart-stability guarantee rests on.
func (f *Facts) Encode() ([]byte, error) {
	var t cond.FormulaTable[wireFNode]
	w := wireFacts{Unit: f.Unit, Symbols: make([]wireSymbol, len(f.Symbols))}
	for i, s := range f.Symbols {
		ws := wireSymbol{Name: s.Name, Facts: make([]wireFact, len(s.Facts))}
		for j, fa := range s.Facts {
			ws.Facts[j] = wireFact{
				Kind: uint8(fa.Kind),
				File: fa.File,
				Line: int32(fa.Line),
				Col:  int32(fa.Col),
				Sig:  fa.Sig,
				Cond: t.Add(fa.Cond),
			}
		}
		w.Symbols[i] = ws
	}
	w.Nodes = t.Nodes
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeFacts deserializes an Encode payload, validating every index and
// opcode so corrupt store entries surface as errors.
func DecodeFacts(data []byte) (*Facts, error) {
	var w wireFacts
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("link: decode facts: %w", err)
	}
	table, err := cond.RebuildFormulas(w.Nodes)
	if err != nil {
		return nil, err
	}
	out := &Facts{Unit: w.Unit, Symbols: make([]Symbol, len(w.Symbols))}
	for i, ws := range w.Symbols {
		s := Symbol{Name: ws.Name, Facts: make([]Fact, len(ws.Facts))}
		for j, wf := range ws.Facts {
			if wf.Kind > uint8(KindRef) {
				return nil, fmt.Errorf("link: unknown fact kind %d for symbol %q", wf.Kind, ws.Name)
			}
			c, err := cond.FormulaAt(table, wf.Cond)
			if err != nil {
				return nil, err
			}
			s.Facts[j] = Fact{
				Kind: FactKind(wf.Kind),
				File: wf.File,
				Line: int(wf.Line),
				Col:  int(wf.Col),
				Sig:  wf.Sig,
				Cond: c,
			}
		}
		out.Symbols[i] = s
	}
	return out, nil
}
