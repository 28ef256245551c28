package preprocessor

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cond"
)

// These tests pin the invariants of the chunk layer: what the chunk writer
// is allowed to emit, that chunk form and segment form are lossless
// conversions of each other, and that the root frame's chunk output is
// observationally identical to the segment slab the same frame builds
// without a chunk writer.

// ppEntry preprocesses entry from the given in-memory tree.
func ppEntry(t *testing.T, files map[string]string, entry string) (*Unit, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}})
	u, err := p.Preprocess(entry)
	if err != nil {
		t.Fatalf("Preprocess(%s): %v", entry, err)
	}
	return u, s
}

// checkChunkInvariants asserts the structural rules every chunk list must
// obey: exactly one of Run/Cond per chunk, no empty runs, runs capped at
// maxRunChunk, and adjacent runs only where the first was a full (capped)
// chunk — otherwise the writer should have packed them together.
func checkChunkInvariants(t *testing.T, chunks []Chunk) {
	t.Helper()
	for i, c := range chunks {
		isRun, isCond := c.Run != nil, c.Cond != nil
		if isRun == isCond {
			t.Fatalf("chunk %d: exactly one of Run/Cond must be set (run=%v cond=%v)", i, isRun, isCond)
		}
		if isRun && len(c.Run) == 0 {
			t.Fatalf("chunk %d: empty run", i)
		}
		if len(c.Run) > maxRunChunk {
			t.Fatalf("chunk %d: run of %d tokens exceeds cap %d", i, len(c.Run), maxRunChunk)
		}
		if i > 0 && isRun && chunks[i-1].Run != nil && len(chunks[i-1].Run) < maxRunChunk {
			t.Fatalf("chunk %d: adjacent runs with a non-full predecessor (%d tokens)", i, len(chunks[i-1].Run))
		}
	}
}

// streamSources is the shared source set: hand-written shapes covering the
// chunk writer's edge cases plus random preprocessor-heavy programs.
func streamSources() map[string]string {
	pad := strings.Repeat("int pad(int a) { return a; }\n", 60) // > maxRunChunk tokens
	srcs := map[string]string{
		"empty":            "",
		"run-only":         pad,
		"cond-only":        "#ifdef A\nint a;\n#else\nlong a;\n#endif\n",
		"run-cond-run":     pad + "#ifdef A\nint m;\n#endif\n" + pad,
		"adjacent-conds":   "#ifdef A\nint a;\n#endif\n#ifdef B\nint b;\n#endif\n",
		"macro-expansion":  "#define TWICE(x) ((x) + (x))\nint v = TWICE(21);\n" + pad,
		"hoisted-cond":     "#define V 1\n#ifdef A\n#define W 2\n#endif\nint x = V\n#ifdef A\n+ W\n#endif\n;\n",
		"include":          "#include \"inc.h\"\nint after;\n",
		"cond-at-very-end": pad + "#ifdef A\nint z;\n#endif\n",
	}
	r := rand.New(rand.NewSource(20260807))
	for i := 0; i < 12; i++ {
		srcs["random-"+string(rune('a'+i))] = randomProgram(r, 3)
	}
	return srcs
}

func streamFiles(src string) map[string]string {
	return map[string]string{
		"main.c":        src,
		"include/inc.h": "int from_header;\n",
	}
}

// TestStreamChunkInvariants checks the writer's structural rules, that
// Chunks is filled and the segment forest is not built eagerly, and that the
// chunk token count agrees with the writer's running count and the segment
// forest's.
func TestStreamChunkInvariants(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			u, _ := ppEntry(t, streamFiles(src), "main.c")
			if u.Chunks == nil {
				t.Fatal("preprocessing produced nil Chunks")
			}
			if u.segments != nil {
				t.Fatal("preprocessing materialized the segment forest eagerly")
			}
			checkChunkInvariants(t, u.Chunks)
			n := CountChunkTokens(u.Chunks)
			if n != u.Stats.Tokens {
				t.Fatalf("chunk token count %d != Stats.Tokens %d", n, u.Stats.Tokens)
			}
			if m := CountTokens(u.EnsureSegments()); n != m {
				t.Fatalf("chunk token count %d != segment count %d", n, m)
			}
		})
	}
}

// ppClassic runs the directive machine over main.c with no chunk writer
// attached, so the root frame materializes its segment slab exactly as every
// included-file and conditional-branch frame does.
func ppClassic(t *testing.T, files map[string]string) ([]Segment, *cond.Space) {
	t.Helper()
	s := cond.NewSpace(cond.ModeBDD)
	p := New(Options{Space: s, FS: MapFS(files), IncludePaths: []string{"include"}})
	p.stats = &UnitStats{File: "main.c"}
	segs, err := p.processFile("main.c", s.True())
	if err != nil {
		t.Fatalf("processFile: %v", err)
	}
	return segs, s
}

// TestStreamEquivalentToClassic renders the unit's chunk output and the
// segment slab the same root frame builds without a chunk writer —
// conditions, branch structure, token text — and requires byte equality.
func TestStreamEquivalentToClassic(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			files := streamFiles(src)
			su, ss := ppEntry(t, files, "main.c")
			segs, cs := ppClassic(t, files)
			got := FlattenText(ss, su.EnsureSegments())
			want := FlattenText(cs, segs)
			if got != want {
				t.Fatalf("streamed output diverges from the segment slab:\nslab:   %s\nstream: %s", want, got)
			}
		})
	}
}

// TestChunkSegmentRoundTrip converts a unit's chunks to segments and back:
// the segments must point into the chunk runs (no token copies), and the
// round trip must reproduce the chunk list exactly — same conditional
// pointers, same run tokens — while obeying the writer invariants.
func TestChunkSegmentRoundTrip(t *testing.T) {
	for name, src := range streamSources() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			u, _, _ := pp(t, streamFiles(src))
			segs := SegmentsOf(u.Chunks)
			k := 0
			for i, c := range u.Chunks {
				if c.Cond != nil {
					if segs[k].Cond != c.Cond {
						t.Fatalf("chunk %d: conditional pointer changed in conversion", i)
					}
					k++
					continue
				}
				for j := range c.Run {
					if segs[k].Tok != &c.Run[j] {
						t.Fatalf("chunk %d token %d: segment does not point into the run", i, j)
					}
					k++
				}
			}
			if k != len(segs) {
				t.Fatalf("conversion produced %d segments, chunks cover %d", len(segs), k)
			}
			back := ChunksOf(segs)
			checkChunkInvariants(t, back)
			if len(back) != len(u.Chunks) {
				t.Fatalf("round trip changed chunk count: %d != %d", len(back), len(u.Chunks))
			}
			for i := range back {
				a, b := u.Chunks[i], back[i]
				if a.Cond != b.Cond || len(a.Run) != len(b.Run) {
					t.Fatalf("chunk %d: shape changed in round trip", i)
				}
				for j := range a.Run {
					if a.Run[j] != b.Run[j] {
						t.Fatalf("chunk %d token %d changed: %+v != %+v", i, j, a.Run[j], b.Run[j])
					}
				}
			}
		})
	}
}

// TestChunkSourceReplay checks that a ChunkSource replays the unit's chunk
// list exactly and that EnsureSegments caches its materialization.
func TestChunkSourceReplay(t *testing.T) {
	u, _ := ppEntry(t, streamFiles(streamSources()["run-cond-run"]), "main.c")
	src := NewChunkSource(u.Chunks)
	var drained []Chunk
	for c, ok := src.Next(); ok; c, ok = src.Next() {
		drained = append(drained, c)
	}
	if len(drained) != len(u.Chunks) {
		t.Fatalf("source replayed %d chunks, unit has %d", len(drained), len(u.Chunks))
	}
	for i := range drained {
		if drained[i].Cond != u.Chunks[i].Cond || len(drained[i].Run) != len(u.Chunks[i].Run) {
			t.Fatalf("chunk %d differs after replay", i)
		}
	}
	segs := u.EnsureSegments()
	if len(segs) == 0 {
		t.Fatal("EnsureSegments returned nothing")
	}
	if again := u.EnsureSegments(); &again[0] != &segs[0] {
		t.Fatal("EnsureSegments did not cache its materialization")
	}
}

// TestEmptyUnitChunks pins the empty unit's representation: a non-nil,
// zero-length chunk list.
func TestEmptyUnitChunks(t *testing.T) {
	u, _ := ppEntry(t, map[string]string{"main.c": ""}, "main.c")
	if u.Chunks == nil || len(u.Chunks) != 0 {
		t.Fatalf("empty unit: want non-nil empty Chunks, got %#v", u.Chunks)
	}
	if got := u.EnsureSegments(); len(got) != 0 {
		t.Fatalf("empty unit materialized %d segments", len(got))
	}
}
