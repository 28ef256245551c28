package preprocessor

import (
	"fmt"
	"strconv"

	"repro/internal/token"
)

// Built-in macros: the "ground truth" of the targeted compiler (paper §2,
// "get ground truth for built-ins from compiler"). The paper obtains these
// by interrogating gcc; here they are a fixed table modeled on gcc's
// documented predefined macros, which exercises the same code path — the
// table is installed into the macro table under the True condition before
// user code is preprocessed.
//
// __FILE__ and __LINE__ are dynamic and handled specially during expansion.

// DefaultBuiltins maps built-in object-like macro names to their replacement
// text: the table every preprocessor installs.
var DefaultBuiltins = map[string]string{
	"__STDC__":           "1",
	"__STDC_VERSION__":   "199901L",
	"__STDC_HOSTED__":    "1",
	"__GNUC__":           "4",
	"__GNUC_MINOR__":     "4",
	"__CHAR_BIT__":       "8",
	"__SIZEOF_INT__":     "4",
	"__SIZEOF_LONG__":    "8",
	"__SIZEOF_POINTER__": "8",
	"__x86_64__":         "1",
	"__ELF__":            "1",
	"__linux__":          "1",
	"__unix__":           "1",
}

// dynamicBuiltin returns the expansion of a use-site-dependent built-in, or
// nil when name is not dynamic. counter supplies __COUNTER__'s
// per-expansion value.
func dynamicBuiltin(name string, use token.Token, counter func() int) []token.Token {
	switch name {
	case "__COUNTER__":
		return []token.Token{{
			Kind: token.Number, Text: fmt.Sprintf("%d", counter()),
			File: use.File, Line: use.Line, Col: use.Col, HasSpace: use.HasSpace,
		}}
	case "__FILE__":
		return []token.Token{{
			Kind: token.String, Text: strconv.Quote(use.File),
			File: use.File, Line: use.Line, Col: use.Col, HasSpace: use.HasSpace,
		}}
	case "__LINE__":
		return []token.Token{{
			Kind: token.Number, Text: fmt.Sprintf("%d", use.Line),
			File: use.File, Line: use.Line, Col: use.Col, HasSpace: use.HasSpace,
		}}
	}
	return nil
}

// isDynamicBuiltin reports whether name must be expanded at each use site.
func isDynamicBuiltin(name string) bool {
	return name == "__FILE__" || name == "__LINE__" || name == "__COUNTER__"
}
