package preprocessor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/token"
)

// randomProgram builds a random preprocessor-heavy program over nvars
// configuration variables. Constructs are drawn from the interaction
// patterns of Table 1 so the differential check stresses the interesting
// code paths: nested conditionals, elif chains, multiply-defined macros,
// function-like macros with conditional arguments, pasting, and
// stringification.
func randomProgram(r *rand.Rand, nvars int) string {
	var b strings.Builder
	vars := make([]string, nvars)
	for i := range vars {
		vars[i] = fmt.Sprintf("V%d", i)
	}
	v := func() string { return vars[r.Intn(len(vars))] }

	// A couple of macros to exercise expansion under conditions.
	fmt.Fprintf(&b, "#ifdef %s\n#define WIDTH 64\n#else\n#define WIDTH 32\n#endif\n", v())
	b.WriteString("#define GLUE2(a, b) a ## b\n#define GLUE(a, b) GLUE2(a, b)\n")
	b.WriteString("#define STR(x) #x\n#define WRAP(x) (x)\n")

	depth := 0
	nblocks := 6 + r.Intn(6)
	for i := 0; i < nblocks; i++ {
		switch r.Intn(8) {
		case 0: // open a conditional
			if depth < 3 {
				switch r.Intn(3) {
				case 0:
					fmt.Fprintf(&b, "#ifdef %s\n", v())
				case 1:
					fmt.Fprintf(&b, "#ifndef %s\n", v())
				default:
					fmt.Fprintf(&b, "#if defined(%s) && !defined(%s)\n", v(), v())
				}
				depth++
			}
		case 1: // elif/else/close
			if depth > 0 {
				switch r.Intn(3) {
				case 0:
					fmt.Fprintf(&b, "#elif defined(%s)\n", v())
				case 1:
					b.WriteString("#else\n")
					fmt.Fprintf(&b, "int e%d;\n", i)
					b.WriteString("#endif\n")
					depth--
				default:
					b.WriteString("#endif\n")
					depth--
				}
			}
		case 2: // plain declaration
			fmt.Fprintf(&b, "int d%d = %d;\n", i, r.Intn(100))
		case 3: // multiply-defined macro use
			fmt.Fprintf(&b, "int w%d = WIDTH;\n", i)
		case 4: // conditional-expression use of WIDTH
			fmt.Fprintf(&b, "#if WIDTH == 64\nlong q%d;\n#endif\n", i)
		case 5: // pasting through WIDTH
			fmt.Fprintf(&b, "int GLUE(sym%d_, WIDTH) = 1;\n", i)
		case 6: // stringification
			fmt.Fprintf(&b, "char *s%d = STR(v %d);\n", i, i)
		default: // function-like macro with conditional argument
			fmt.Fprintf(&b, "int f%d = WRAP(\n#ifdef %s\n%d +\n#endif\n%d);\n", i, v(), r.Intn(9), r.Intn(9))
		}
	}
	for ; depth > 0; depth-- {
		b.WriteString("#endif\n")
	}
	return b.String()
}

// TestDifferentialRandomPrograms cross-validates configuration-preserving
// preprocessing against single-configuration preprocessing on random
// programs, for every configuration — the repository's analogue of the
// paper's gcc -E comparison that gave them "high assurance that SuperC's
// preprocessor is correct".
func TestDifferentialRandomPrograms(t *testing.T) {
	const nvars = 3
	r := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(r, nvars)
		files := map[string]string{"main.c": src}

		space := cond.NewSpace(cond.ModeBDD)
		pres := New(Options{Space: space, FS: MapFS(files)})
		unit, err := pres.Preprocess("main.c")
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		bad := false
		for _, d := range unit.Diags {
			if !d.Warning {
				bad = true
			}
		}
		if bad {
			t.Fatalf("trial %d: diagnostics %v\n%s", trial, unit.Diags, src)
		}

		for bits := 0; bits < 1<<nvars; bits++ {
			assign := map[string]bool{}
			single := New(Options{Space: cond.NewSpace(cond.ModeBDD), FS: MapFS(files), SingleConfig: true})
			for i := 0; i < nvars; i++ {
				if bits&(1<<i) != 0 {
					name := fmt.Sprintf("V%d", i)
					assign["(defined "+name+")"] = true
					if err := single.Define(name, "1"); err != nil {
						t.Fatal(err)
					}
				}
			}
			su, err := single.PreprocessKeepTable("main.c")
			if err != nil {
				t.Fatalf("trial %d single: %v", trial, err)
			}
			want := joinTokens(Tokens(space, su.EnsureSegments(), nil))
			got := joinTokens(Tokens(space, unit.EnsureSegments(), assign))
			if got != want {
				t.Fatalf("trial %d config %03b:\npreserving: %s\nsingle:     %s\nsource:\n%s",
					trial, bits, got, want, src)
			}
		}
	}
}

func joinTokens(toks []token.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}
