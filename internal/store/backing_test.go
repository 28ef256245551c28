package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hcache"
	"repro/internal/token"
)

// stringCodec is a trivial PayloadCodec over string payloads, standing in for
// the preprocessor's segment-forest codec.
type stringCodec struct{ failEncode bool }

func (c stringCodec) EncodePayload(v any) ([]byte, error) {
	if c.failEncode {
		return nil, errors.New("encode disabled")
	}
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", v)
	}
	return []byte(s), nil
}

func (c stringCodec) DecodePayload(data []byte) (any, error) {
	if bytes.HasPrefix(data, []byte("BAD")) {
		return nil, errors.New("poisoned payload")
	}
	return string(data), nil
}

func TestBackingLexRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	b := NewHeaderBacking(s, stringCodec{})
	if _, ok := b.LoadLex("absent"); ok {
		t.Fatal("LoadLex(absent) hit")
	}
	e := &hcache.LexEntry{
		Lines: [][]token.Token{{{Text: "int"}, {Text: "x"}}, {}, {{Text: "y"}}},
		Guard: "FOO_H",
		Bytes: 42,
	}
	b.SaveLex("k", e)
	got, ok := b.LoadLex("k")
	if !ok {
		t.Fatal("LoadLex missed after SaveLex")
	}
	if got.Guard != "FOO_H" || got.Bytes != 42 || !reflect.DeepEqual(linesText(got.Lines), linesText(e.Lines)) {
		t.Fatalf("LoadLex = %+v", got)
	}

	// A payload written when entries also held the flat token array still
	// decodes: gob skips the field the entry no longer has.
	var buf bytes.Buffer
	old := struct {
		Toks  []token.Token
		Lines [][]token.Token
		Guard string
		Bytes int
	}{[]token.Token{{Text: "int"}, {Text: "x"}, {Text: "y"}}, e.Lines, e.Guard, e.Bytes}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	s.Put(NSLex, "old", buf.Bytes())
	got, ok = b.LoadLex("old")
	if !ok || got.Guard != "FOO_H" || !reflect.DeepEqual(linesText(got.Lines), linesText(e.Lines)) {
		t.Fatalf("LoadLex(old payload) = %+v, %v", got, ok)
	}
}

// linesText renders each line as its tokens' texts.
func linesText(lines [][]token.Token) []string {
	out := make([]string, len(lines))
	for i, line := range lines {
		for _, tk := range line {
			out[i] += tk.Text + " "
		}
	}
	return out
}

func TestBackingLexUndecodable(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	b := NewHeaderBacking(s, stringCodec{})
	s.Put(NSLex, "k", []byte("not gob at all"))
	if _, ok := b.LoadLex("k"); ok {
		t.Fatal("LoadLex decoded garbage")
	}
	// The bad artifact is dropped so it is not re-read every miss.
	if _, ok := s.Get(NSLex, "k"); ok {
		t.Fatal("undecodable lex artifact not deleted")
	}
}

func entryWithFP(sig, payload string) *hcache.Entry {
	return &hcache.Entry{
		Fingerprint:     []hcache.KV{{Key: "CONFIG_A", Sig: sig}},
		Deps:            []hcache.Dep{{Path: "a.h", Hash: "abc"}},
		Probes:          []hcache.Probe{{Path: "b.h", Exists: false}},
		RelIncludeDepth: 3,
		Bytes:           100,
		Payload:         payload,
		Portable:        true,
	}
}

func TestBackingEntryRoundTrip(t *testing.T) {
	b := NewHeaderBacking(open(t, t.TempDir(), Options{}), stringCodec{})
	if got := b.LoadEntries("absent"); got != nil {
		t.Fatalf("LoadEntries(absent) = %v", got)
	}
	b.SaveEntry("k", entryWithFP("sig1", "payload-one"))
	b.SaveEntry("k", entryWithFP("sig2", "payload-two"))
	got := b.LoadEntries("k")
	if len(got) != 2 {
		t.Fatalf("LoadEntries returned %d entries; want 2", len(got))
	}
	// Newest first; every decoded entry is portable by construction.
	if got[0].Payload != "payload-two" || got[1].Payload != "payload-one" {
		t.Fatalf("order/payloads wrong: %v, %v", got[0].Payload, got[1].Payload)
	}
	for _, e := range got {
		if !e.Portable {
			t.Fatal("decoded entry not marked portable")
		}
		if e.RelIncludeDepth != 3 || e.Bytes != 100 || len(e.Deps) != 1 || len(e.Probes) != 1 {
			t.Fatalf("entry fields lost: %+v", e)
		}
	}
}

func TestBackingEntryDedupAndCap(t *testing.T) {
	b := NewHeaderBacking(open(t, t.TempDir(), Options{}), stringCodec{})
	// Same fingerprint twice: second save is a no-op.
	b.SaveEntry("k", entryWithFP("same", "first"))
	b.SaveEntry("k", entryWithFP("same", "second"))
	if got := b.LoadEntries("k"); len(got) != 1 || got[0].Payload != "first" {
		t.Fatalf("dedup failed: %d entries", len(got))
	}
	// Distinct fingerprints accumulate, capped at maxEntriesPerKey.
	for i := 0; i < maxEntriesPerKey+4; i++ {
		b.SaveEntry("cap", entryWithFP(fmt.Sprintf("sig%d", i), fmt.Sprintf("p%d", i)))
	}
	if got := b.LoadEntries("cap"); len(got) != maxEntriesPerKey {
		t.Fatalf("cap failed: %d entries; want %d", len(got), maxEntriesPerKey)
	}
}

func TestBackingEntryCodecFailures(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	b := NewHeaderBacking(s, stringCodec{})
	// Encode failure: nothing persisted, no panic.
	bad := NewHeaderBacking(s, stringCodec{failEncode: true})
	bad.SaveEntry("k", entryWithFP("sig", "payload"))
	if got := b.LoadEntries("k"); got != nil {
		t.Fatalf("encode-failed entry persisted: %v", got)
	}
	// Decode failure on one entry keeps the rest.
	b.SaveEntry("k", entryWithFP("good", "fine"))
	b.SaveEntry("k", entryWithFP("poison", "BAD payload"))
	got := b.LoadEntries("k")
	if len(got) != 1 || got[0].Payload != "fine" {
		t.Fatalf("decode failure not isolated: %d entries", len(got))
	}
}

func TestGobHelpers(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	type fact struct {
		Name  string
		Count int
	}
	PutGob(s, NSFacts, "k", fact{Name: "diag", Count: 7})
	var got fact
	if !GetGob(s, NSFacts, "k", &got) || got.Name != "diag" || got.Count != 7 {
		t.Fatalf("GetGob = %+v", got)
	}
	// Format drift: the stored gob no longer decodes into the caller's type.
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode("just a string")
	s.Put(NSFacts, "drift", buf.Bytes())
	var out fact
	if GetGob(s, NSFacts, "drift", &out) {
		t.Fatal("GetGob decoded mismatched type")
	}
	if _, ok := s.Get(NSFacts, "drift"); ok {
		t.Fatal("undecodable facts artifact not deleted")
	}
}
