package link

// This file serializes link facts for the daemon's durable fact store
// (internal/store): Facts.Encode/DecodeFacts for a fact set alone, and
// Entry.Encode/DecodeEntry for one stored /v1/link unit, its facts behind
// the read set that made them. Both are one hand-written layout of
// uvarints and length-prefixed strings, read by one reader. A gob decoder
// compiles its wire type afresh for every payload, which on a warm
// 200-unit /v1/link request cost about a quarter of the CPU.
//
// Conditions are cond.Formula DAGs with pointer sharing; the layout
// flattens every formula of a fact set into one indexed node table, so the
// sharing survives the round trip and a condition guarding many facts (the
// common case, since one #ifdef guards many declarations) encodes once.
//
// Decoding is defensive: the payload may come from a corrupt or hostile
// store. A count or length larger than the bytes left is rejected before
// anything is allocated, the formula table is validated by
// cond.RebuildFormulas, every fact's kind and condition index is range
// checked, and trailing bytes are rejected. Poisoned payloads produce
// errors, never panics.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cond"
	"repro/internal/hcache"
)

// Each layout opens with two magic bytes and a version byte.
const (
	factsMagic = "LF\x01"
	entryMagic = "LE\x01"
)

// Entry is one unit's stored /v1/link result: its facts and the read set
// (the unit's deps and include probes) that made them, re-checked before
// the facts are served.
type Entry struct {
	Deps   []hcache.Dep
	Probes []hcache.Probe
	Facts  *Facts
}

// Encode serializes the facts. Callers should Normalize first (extraction
// already emits canonical order) so equal fact sets encode byte-identically
// — the property the daemon's restart-stability guarantee rests on.
func (f *Facts) Encode() []byte {
	return appendFacts([]byte(factsMagic), f)
}

// DecodeFacts deserializes an Encode payload, validating every count,
// index and opcode so corrupt store entries surface as errors.
func DecodeFacts(data []byte) (*Facts, error) {
	r := newReader(data, factsMagic)
	f, err := r.facts()
	if err != nil {
		return nil, err
	}
	return f, r.end()
}

// Encode lays the entry out as the dep count, each dep's path and hash,
// the probe count, each probe's path and outcome (0 or 1), then the facts.
func (e *Entry) Encode() []byte {
	b := binary.AppendUvarint([]byte(entryMagic), uint64(len(e.Deps)))
	for _, d := range e.Deps {
		b = appendString(appendString(b, d.Path), d.Hash)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Probes)))
	for _, p := range e.Probes {
		exists := byte(0)
		if p.Exists {
			exists = 1
		}
		b = append(appendString(b, p.Path), exists)
	}
	return appendFacts(b, e.Facts)
}

// DecodeEntry reads Entry.Encode's layout, rejecting truncated or
// malformed data.
func DecodeEntry(data []byte) (*Entry, error) {
	r := newReader(data, entryMagic)
	e := &Entry{Deps: make([]hcache.Dep, r.count())}
	for i := range e.Deps {
		e.Deps[i] = hcache.Dep{Path: r.string(), Hash: r.string()}
	}
	e.Probes = make([]hcache.Probe, r.count())
	for i := range e.Probes {
		e.Probes[i] = hcache.Probe{Path: r.string(), Exists: r.byte() == 1}
	}
	var err error
	if e.Facts, err = r.facts(); err != nil {
		return nil, err
	}
	return e, r.end()
}

// appendFacts lays out the unit name; the formula node count, then each
// node's op byte, name, and arg count and indices; the symbol count, then
// each symbol's name and fact count, and each fact's kind byte, file, line,
// col, sig, and condition index + 1 (0 for none).
func appendFacts(b []byte, f *Facts) []byte {
	var t cond.FormulaTable[cond.FormulaNode]
	conds := make([]int32, 0, f.Count())
	for _, s := range f.Symbols {
		for _, fa := range s.Facts {
			conds = append(conds, t.Add(fa.Cond))
		}
	}
	b = binary.AppendUvarint(appendString(b, f.Unit), uint64(len(t.Nodes)))
	for _, n := range t.Nodes {
		b = binary.AppendUvarint(appendString(append(b, n.Op), n.Name), uint64(len(n.Args)))
		for _, a := range n.Args {
			b = binary.AppendUvarint(b, uint64(a))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(f.Symbols)))
	for _, s := range f.Symbols {
		b = binary.AppendUvarint(appendString(b, s.Name), uint64(len(s.Facts)))
		for _, fa := range s.Facts {
			b = appendString(append(b, uint8(fa.Kind)), fa.File)
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(fa.Line)), uint64(fa.Col))
			b = binary.AppendUvarint(appendString(b, fa.Sig), uint64(conds[0]+1))
			conds = conds[1:]
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// reader consumes a payload. After the first malformed field it sets bad
// and yields zero values. Its strings are substrings of one copy of the
// payload, so decoding allocates once for all of them.
type reader struct {
	b   []byte
	s   string // b's bytes, sliced for strings
	off int
	bad bool
}

func newReader(data []byte, magic string) *reader {
	r := &reader{b: data, s: string(data)}
	if len(data) < len(magic) || r.s[:len(magic)] != magic {
		r.bad = true
	} else {
		r.off = len(magic)
	}
	return r
}

// uvarint reads one value of any size.
func (r *reader) uvarint() uint64 {
	n, k := binary.Uvarint(r.b[r.off:])
	if r.bad || k <= 0 {
		r.bad = true
		return 0
	}
	r.off += k
	return n
}

// upTo reads a value no larger than max.
func (r *reader) upTo(max int) int {
	n := r.uvarint()
	if n > uint64(max) {
		r.bad = true
		return 0
	}
	return int(n)
}

// count reads a count or length, which never exceeds the bytes left after
// it, so garbage cannot ask for a huge allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *reader) string() string {
	n := r.count()
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) byte() byte {
	if r.bad || r.off == len(r.b) {
		r.bad = true
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// end reports the first malformed field, or bytes left over.
func (r *reader) end() error {
	if r.bad || r.off != len(r.b) {
		return errors.New("link: malformed payload")
	}
	return nil
}

// facts reads appendFacts' layout.
func (r *reader) facts() (*Facts, error) {
	out := &Facts{Unit: r.string()}
	nodes := make([]cond.FormulaNode, r.count())
	var args []int32 // one backing array for every node's args
	for i := range nodes {
		nodes[i].Op, nodes[i].Name = r.byte(), r.string()
		start := len(args)
		for k := r.count(); k > 0; k-- {
			args = append(args, int32(r.upTo(len(nodes))))
		}
		nodes[i].Args = args[start:len(args):len(args)]
	}
	if r.bad {
		return nil, r.end()
	}
	table, err := cond.RebuildFormulas(nodes)
	if err != nil {
		return nil, err
	}
	out.Symbols = make([]Symbol, r.count())
	for i := range out.Symbols {
		s := &out.Symbols[i]
		s.Name = r.string()
		s.Facts = make([]Fact, r.count())
		for j := range s.Facts {
			fa := &s.Facts[j]
			kind := r.byte()
			fa.File = r.string()
			fa.Line, fa.Col = int(r.uvarint()), int(r.uvarint())
			fa.Sig = r.string()
			c := r.upTo(len(table))
			if r.bad {
				return nil, r.end()
			}
			if kind > uint8(KindRef) {
				return nil, fmt.Errorf("link: unknown fact kind %d for symbol %q", kind, s.Name)
			}
			fa.Kind = FactKind(kind)
			if c > 0 {
				fa.Cond = table[c-1]
			}
		}
	}
	return out, nil
}
