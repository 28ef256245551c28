package preprocessor

// This file serializes the header cache's opaque Level-2 payload for the
// on-disk artifact store (internal/store). The in-memory payload
// (headerPayload) is built from unexported types and pointer-shared
// condition formulas; the wire form flattens every formula into one indexed
// node table per payload so the DAG sharing survives the round trip (a gob
// of the raw pointer graph would expand shared subformulas into trees).
//
// Only portable entries are ever encoded (hcache.Entry.Portable): their
// fingerprints contain no per-process canonical ids, so a different process
// may safely compare and replay them. The payload itself is always process
// independent — conditions travel as cond.Formula values, and replay imports
// them into the consuming unit's own space.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cond"
	"repro/internal/hcache"
	"repro/internal/token"
)

// wirePayload is the persisted form of headerPayload.
type wirePayload struct {
	Nodes []wireFNode // formula DAG table shared by every condition below
	Segs  []wireSeg
	Ops   []wireOp
	Diags []Diagnostic
	Stats UnitStats
}

// wireFNode is one formula node (cond.WireNode); Args index earlier
// entries of Nodes.
type wireFNode cond.FormulaNode

// wireSeg mirrors xSeg: a token, or a conditional with branches.
type wireSeg struct {
	Tok      *token.Token
	IsCond   bool
	Branches []wireBranch
}

type wireBranch struct {
	Cond int32 // index into wirePayload.Nodes
	Segs []wireSeg
}

// wireOp mirrors replayOp.
type wireOp struct {
	Kind  uint8
	Name  string
	Def   *MacroDef
	Cond  int32 // index into wirePayload.Nodes; -1 when the op carries none
	Path  string
	Guard string
}

func exportWireSegs(t *cond.FormulaTable[wireFNode], segs []xSeg) []wireSeg {
	out := make([]wireSeg, len(segs))
	for i, s := range segs {
		if s.tok != nil {
			out[i] = wireSeg{Tok: s.tok}
			continue
		}
		ws := wireSeg{IsCond: true, Branches: make([]wireBranch, len(s.cnd.branches))}
		for j, br := range s.cnd.branches {
			ws.Branches[j] = wireBranch{Cond: t.Add(br.cond), Segs: exportWireSegs(t, br.segs)}
		}
		out[i] = ws
	}
	return out
}

func importWireSegs(table []*cond.Formula, segs []wireSeg) ([]xSeg, error) {
	out := make([]xSeg, len(segs))
	for i, s := range segs {
		if !s.IsCond {
			if s.Tok == nil {
				return nil, fmt.Errorf("preprocessor: wire segment %d has neither token nor conditional", i)
			}
			out[i] = xSeg{tok: s.Tok}
			continue
		}
		xc := &xCond{branches: make([]xBranch, len(s.Branches))}
		for j, br := range s.Branches {
			f, err := cond.FormulaAt(table, br.Cond)
			if err != nil {
				return nil, err
			}
			inner, err := importWireSegs(table, br.Segs)
			if err != nil {
				return nil, err
			}
			xc.branches[j] = xBranch{cond: f, segs: inner}
		}
		out[i] = xSeg{cnd: xc}
	}
	return out, nil
}

// payloadCodec implements hcache.PayloadCodec over the wire form.
type payloadCodec struct{}

// PayloadCodec returns the codec that serializes header-cache payloads for a
// durable backing store (store.HeaderBacking wires it up).
func PayloadCodec() hcache.PayloadCodec { return payloadCodec{} }

func (payloadCodec) EncodePayload(v any) ([]byte, error) {
	pl, ok := v.(*headerPayload)
	if !ok {
		return nil, fmt.Errorf("preprocessor: unexpected payload type %T", v)
	}
	t := &cond.FormulaTable[wireFNode]{}
	w := wirePayload{
		Segs:  exportWireSegs(t, pl.segs),
		Ops:   make([]wireOp, len(pl.ops)),
		Diags: pl.diags,
		Stats: pl.stats,
	}
	for i, op := range pl.ops {
		w.Ops[i] = wireOp{
			Kind:  uint8(op.kind),
			Name:  op.name,
			Def:   op.def,
			Cond:  t.Add(op.cond),
			Path:  op.path,
			Guard: op.guard,
		}
	}
	w.Nodes = t.Nodes
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (payloadCodec) DecodePayload(data []byte) (any, error) {
	var w wirePayload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	table, err := cond.RebuildFormulas(w.Nodes)
	if err != nil {
		return nil, err
	}
	segs, err := importWireSegs(table, w.Segs)
	if err != nil {
		return nil, err
	}
	pl := &headerPayload{
		segs:  segs,
		diags: w.Diags,
		stats: w.Stats,
		ops:   make([]replayOp, len(w.Ops)),
	}
	for i, op := range w.Ops {
		f, err := cond.FormulaAt(table, op.Cond)
		if err != nil {
			return nil, err
		}
		pl.ops[i] = replayOp{
			kind:  opKind(op.Kind),
			name:  op.Name,
			def:   op.Def,
			cond:  f,
			path:  op.Path,
			guard: op.Guard,
		}
	}
	return pl, nil
}
