package cgrammar_test

// Round-trip verification for the parse-table cache: tables that were gob
// encoded and decoded must drive the FMLR engine identically to freshly
// generated ones — same AST (including static choice nodes and semantic
// labels), same subparser statistics — because the decoded grammar carries
// the production indices and labels the semantic actions dispatch on.

import (
	"bytes"
	"testing"

	"repro/internal/cgrammar"
	"repro/internal/cond"
	"repro/internal/fmlr"
	"repro/internal/preprocessor"
)

const roundTripSrc = `
#define REG(n) int reg_##n;
typedef unsigned long ulong_t;
REG(a)
#ifdef CONFIG_SMP
ulong_t cpus = 4;
#else
ulong_t cpus = 1;
#endif
static int (*handlers[])(void) = {
#ifdef CONFIG_NET
	net_init,
#endif
#ifdef CONFIG_USB
	usb_init,
#endif
	((void *)0)
};
int main(void) {
	if (cpus > 1) { reg_a = 1; }
	return (int)cpus;
}
`

// parseWith runs the standard pipeline over roundTripSrc using the given
// grammar+tables bundle.
func parseWith(t *testing.T, lang *cgrammar.C) *fmlr.Result {
	t.Helper()
	space := cond.NewSpace(cond.ModeBDD)
	pp := preprocessor.New(preprocessor.Options{
		Space: space,
		FS:    preprocessor.MapFS{"rt.c": roundTripSrc},
	})
	unit, err := pp.PreprocessKeepTable("rt.c")
	if err != nil {
		t.Fatal(err)
	}
	eng := fmlr.New(space, lang, fmlr.OptAll)
	res := eng.Parse(unit.EnsureSegments(), "rt.c")
	if res.AST == nil {
		t.Fatal("parse failed")
	}
	return res
}

func TestDecodedTablesParseIdentically(t *testing.T) {
	fresh, err := cgrammar.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.EncodeTables(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := cgrammar.DecodeTables(&buf)
	if err != nil {
		t.Fatal(err)
	}

	a := parseWith(t, fresh)
	b := parseWith(t, decoded)

	// Byte-identical ASTs: same structure, same semantic labels, same
	// choice nodes in the same places.
	if got, want := b.AST.String(), a.AST.String(); got != want {
		t.Errorf("decoded tables produce a different AST:\n--- decoded ---\n%s\n--- fresh ---\n%s", got, want)
	}
	if b.AST.CountChoices() != a.AST.CountChoices() {
		t.Errorf("choice nodes: %d vs %d", b.AST.CountChoices(), a.AST.CountChoices())
	}
	// Identical engine behaviour, not just identical output.
	if b.Stats.Iterations != a.Stats.Iterations || b.Stats.Forks != a.Stats.Forks ||
		b.Stats.Merges != a.Stats.Merges || b.Stats.Reduces != a.Stats.Reduces {
		t.Errorf("decoded-table parse stats %+v differ from fresh %+v", b.Stats, a.Stats)
	}
}

func TestDecodeTablesRejectsGarbage(t *testing.T) {
	if _, err := cgrammar.DecodeTables(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage decoded into a grammar")
	}
}
