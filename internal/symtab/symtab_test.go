package symtab

import (
	"testing"

	"repro/internal/cond"
)

func TestUnknownNameIsIdentifier(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	cl := tab.Classify("foo", FileScope, s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("unknown name: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestUnconditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.Define("size_t", FileScope, s.True(), true)
	cl := tab.Classify("size_t", FileScope, s.True())
	if !s.IsTrue(cl.TypedefCond) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("size_t: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestConditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.Define("T", FileScope, a, true)
	cl := tab.Classify("T", FileScope, s.True())
	if !s.Equal(cl.TypedefCond, a) {
		t.Errorf("typedef cond = %s, want A", s.String(cl.TypedefCond))
	}
	if !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("other cond = %s, want !A", s.String(cl.OtherCond))
	}
}

// TestAmbiguousName reproduces the paper's ambiguously-defined name: T is a
// typedef under A and an object under !A.
func TestAmbiguousName(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.Define("T", FileScope, a, true)
	tab.Define("T", FileScope, s.Not(a), false)
	cl := tab.Classify("T", FileScope, s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	// Restricted to A, unambiguous.
	cl = tab.Classify("T", FileScope, a)
	if !s.Equal(cl.TypedefCond, a) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("T under A: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.Define("T", FileScope, s.True(), true)
	tab.Define("T", 1, s.True(), false)
	cl := tab.Classify("T", 1, s.True())
	if !s.IsFalse(cl.TypedefCond) {
		t.Errorf("inner object should shadow: typedef=%s", s.String(cl.TypedefCond))
	}
	tab.Exit(1, s.True())
	cl = tab.Classify("T", FileScope, s.True())
	if !s.IsTrue(cl.TypedefCond) {
		t.Errorf("outer typedef should reappear: %s", s.String(cl.TypedefCond))
	}
	// A block entered afresh at the same depth starts empty.
	if cl = tab.Classify("T", 1, s.True()); !s.IsTrue(cl.TypedefCond) {
		t.Errorf("exited block leaked into the next one: typedef=%s", s.String(cl.TypedefCond))
	}
}

func TestConditionalShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.Define("T", FileScope, s.True(), true)
	tab.Define("T", 1, a, false) // shadowed only under A
	cl := tab.Classify("T", 1, s.True())
	if !s.Equal(cl.TypedefCond, s.Not(a)) {
		t.Errorf("typedef cond = %s, want !A", s.String(cl.TypedefCond))
	}
	// A reader at file scope does not see the block.
	if cl = tab.Classify("T", FileScope, s.True()); !s.IsTrue(cl.TypedefCond) {
		t.Errorf("file-scope typedef cond = %s, want 1", s.String(cl.TypedefCond))
	}
}

// TestDisjointRegistrationsInvisible is the fork/merge half of the shared
// table: two subparsers under disjoint conditions register into one table
// without seeing each other's names, and once they merge, the view under
// the disjoined condition sees both, as the old deep-copy merge did.
func TestDisjointRegistrationsInvisible(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	na := s.Not(a)
	tab := New(s)
	tab.Define("T", FileScope, a, true)   // the subparser under A
	tab.Define("T", FileScope, na, false) // the subparser under !A
	tab.Define("U", FileScope, na, true)
	if cl := tab.Classify("T", FileScope, a); !s.Equal(cl.TypedefCond, a) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("T under A: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	if cl := tab.Classify("T", FileScope, na); !s.IsFalse(cl.TypedefCond) {
		t.Errorf("A's typedef leaked to !A: %s", s.String(cl.TypedefCond))
	}
	if cl := tab.Classify("U", FileScope, a); !s.IsFalse(cl.TypedefCond) {
		t.Errorf("!A's typedef leaked to A: %s", s.String(cl.TypedefCond))
	}
	cl := tab.Classify("T", FileScope, s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, na) {
		t.Errorf("merged T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	if cl = tab.Classify("U", FileScope, s.True()); !s.Equal(cl.TypedefCond, na) {
		t.Errorf("merged U: typedef=%s", s.String(cl.TypedefCond))
	}
}

// TestPartialExitForgetsOnlyLeaver: when the configurations under A leave a
// block that the ones under !A are still inside, A's view of the next block
// at that depth is empty while !A keeps every entry of its own.
func TestPartialExitForgetsOnlyLeaver(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	na := s.Not(a)
	tab := New(s)
	tab.Define("T", 1, s.True(), true) // declared before the configurations split
	tab.Define("x", 1, a, false)
	tab.Exit(1, a)
	if cl := tab.Classify("T", 1, a); !s.IsFalse(cl.TypedefCond) {
		t.Errorf("leaver still sees T: typedef=%s", s.String(cl.TypedefCond))
	}
	if cl := tab.Classify("T", 1, na); !s.Equal(cl.TypedefCond, na) {
		t.Errorf("stayer lost T: typedef=%s", s.String(cl.TypedefCond))
	}
	if local, _ := tab.Declared("x", 1); !s.IsFalse(local) {
		t.Errorf("leaver's x survived the exit: %s", s.String(local))
	}
	if td, obj, ok := tab.CurrentScope("T", 1); !ok || !s.Equal(td, na) || !s.IsFalse(obj) {
		t.Errorf("T after partial exit: ok=%v typedef=%s object=%s", ok, s.String(td), s.String(obj))
	}
	tab.Exit(1, na)
	if _, _, ok := tab.CurrentScope("T", 1); ok {
		t.Error("scope not empty after every configuration left")
	}
}

func TestExitFileScopeIgnored(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.Define("x", FileScope, s.True(), false)
	tab.Exit(FileScope, s.True()) // must not clear the file scope
	if _, file := tab.Declared("x", FileScope); !s.IsTrue(file) {
		t.Errorf("file-scope x after Exit: %s", s.String(file))
	}
}

func TestRedefinitionWithinScope(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.Define("T", FileScope, s.True(), true)
	tab.Define("T", FileScope, s.True(), false) // later declaration shadows
	cl := tab.Classify("T", FileScope, s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestDeclaredSplitsAtFileScope(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a, b := s.Var("A"), s.Var("B")
	tab := New(s)
	tab.Define("x", FileScope, a, false)
	tab.Define("x", 1, b, true)
	tab.Define("x", 2, s.Not(b), false)
	if local, file := tab.Declared("x", 2); !s.IsTrue(local) || !s.Equal(file, a) {
		t.Errorf("local %s file %s, want 1 and A", s.String(local), s.String(file))
	}
	tab.Exit(2, s.True())
	tab.Exit(1, s.True())
	if local, file := tab.Declared("x", FileScope); !s.IsFalse(local) || !s.Equal(file, a) {
		t.Errorf("file scope only: local %s file %s, want 0 and A", s.String(local), s.String(file))
	}
	if local, file := tab.Declared("y", FileScope); !s.IsFalse(local) || !s.IsFalse(file) {
		t.Error("undeclared name has a declaration condition")
	}
}
