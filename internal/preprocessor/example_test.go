package preprocessor_test

import (
	"fmt"
	"strings"

	"repro/internal/cond"
	"repro/internal/preprocessor"
)

// Example demonstrates configuration-preserving preprocessing of the
// paper's Figure 2: a multiply-defined macro whose use propagates an
// implicit conditional.
func Example() {
	space := cond.NewSpace(cond.ModeBDD)
	p := preprocessor.New(preprocessor.Options{
		Space: space,
		FS: preprocessor.MapFS{
			"main.c": `
#ifdef CONFIG_64BIT
#define BITS_PER_LONG 64
#else
#define BITS_PER_LONG 32
#endif
int bits = BITS_PER_LONG;
`,
		},
	})
	unit, err := p.Preprocess("main.c")
	if err != nil {
		panic(err)
	}
	for _, assign := range []map[string]bool{
		{"(defined CONFIG_64BIT)": true},
		nil,
	} {
		toks := preprocessor.Tokens(space, unit.EnsureSegments(), assign)
		parts := make([]string, len(toks))
		for i, t := range toks {
			parts[i] = t.Text
		}
		fmt.Println(strings.Join(parts, " "))
	}
	// Output:
	// int bits = 64 ;
	// int bits = 32 ;
}
