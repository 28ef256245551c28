package symtab

import (
	"testing"

	"repro/internal/cond"
)

func TestUnknownNameIsIdentifier(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	cl := tab.Classify("foo", s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("unknown name: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestUnconditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("size_t", s.True())
	cl := tab.Classify("size_t", s.True())
	if !s.IsTrue(cl.TypedefCond) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("size_t: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestConditionalTypedef(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.DefineTypedef("T", a)
	cl := tab.Classify("T", s.True())
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
	tab.DefineTypedef("T", a)
	tab.DefineObject("T", s.Not(a))
	cl := tab.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	// Restricted to A, unambiguous.
	cl = tab.Classify("T", a)
	if !s.Equal(cl.TypedefCond, a) || !s.IsFalse(cl.OtherCond) {
		t.Errorf("T under A: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.EnterScope()
	tab.DefineObject("T", s.True())
	cl := tab.Classify("T", s.True())
	if !s.IsFalse(cl.TypedefCond) {
		t.Errorf("inner object should shadow: typedef=%s", s.String(cl.TypedefCond))
	}
	tab.ExitScope()
	cl = tab.Classify("T", s.True())
	if !s.IsTrue(cl.TypedefCond) {
		t.Errorf("outer typedef should reappear: %s", s.String(cl.TypedefCond))
	}
}

func TestConditionalShadowing(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.EnterScope()
	tab.DefineObject("T", a) // shadowed only under A
	cl := tab.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, s.Not(a)) {
		t.Errorf("typedef cond = %s, want !A", s.String(cl.TypedefCond))
	}
}

func TestRedefinitionWithinScope(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	tab.DefineObject("T", s.True()) // later declaration shadows
	cl := tab.Classify("T", s.True())
	if !s.IsFalse(cl.TypedefCond) || !s.IsTrue(cl.OtherCond) {
		t.Errorf("T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
}

func TestCloneIsolation(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("T", s.True())
	cl := tab.Clone()
	cl.DefineTypedef("U", s.True())
	if got := tab.Classify("U", s.True()); !s.IsFalse(got.TypedefCond) {
		t.Error("clone leaked into original")
	}
	if got := cl.Classify("T", s.True()); !s.IsTrue(got.TypedefCond) {
		t.Error("clone lost original entries")
	}
}

func TestMayMergeDepth(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	t1, t2 := New(s), New(s)
	if !t1.MayMerge(t2) {
		t.Error("same depth should merge")
	}
	t2.EnterScope()
	if t1.MayMerge(t2) {
		t.Error("different depths must not merge")
	}
}

func TestMerge(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	t1, t2 := New(s), New(s)
	t1.DefineTypedef("T", a)
	t2.DefineObject("T", s.Not(a))
	t2.DefineTypedef("U", s.Not(a))
	m := t1.Merge(t2)
	cl := m.Classify("T", s.True())
	if !s.Equal(cl.TypedefCond, a) || !s.Equal(cl.OtherCond, s.Not(a)) {
		t.Errorf("merged T: typedef=%s other=%s", s.String(cl.TypedefCond), s.String(cl.OtherCond))
	}
	cl = m.Classify("U", s.True())
	if !s.Equal(cl.TypedefCond, s.Not(a)) {
		t.Errorf("merged U: typedef=%s", s.String(cl.TypedefCond))
	}
}

func TestExitFileScopeIgnored(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.ExitScope() // must not pop the file scope
	if tab.Depth() != 1 {
		t.Errorf("depth = %d", tab.Depth())
	}
}

func TestMergeDifferentDepthsClones(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := New(s)
	b := New(s)
	b.EnterScope()
	// Merge only aligns the shared depth prefix; deeper scopes of the
	// other table are ignored (MayMerge should have gated this anyway).
	m := a.Merge(b)
	if m.Depth() != 1 {
		t.Errorf("depth = %d", m.Depth())
	}
}

func TestNamesCount(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	tab := New(s)
	tab.DefineTypedef("A", s.True())
	tab.DefineObject("B", s.True())
	if tab.Names() != 2 {
		t.Errorf("Names = %d", tab.Names())
	}
}

func TestDeclaredSplitsAtFileScope(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a, b := s.Var("A"), s.Var("B")
	tab := New(s)
	tab.DefineObject("x", a)
	tab.EnterScope()
	tab.DefineTypedef("x", b)
	tab.EnterScope()
	tab.DefineObject("x", s.Not(b))
	if local, file := tab.Declared("x"); !s.IsTrue(local) || !s.Equal(file, a) {
		t.Errorf("local %s file %s, want 1 and A", s.String(local), s.String(file))
	}
	tab.ExitScope()
	tab.ExitScope()
	if local, file := tab.Declared("x"); !s.IsFalse(local) || !s.Equal(file, a) {
		t.Errorf("file scope only: local %s file %s, want 0 and A", s.String(local), s.String(file))
	}
	if local, file := tab.Declared("y"); !s.IsFalse(local) || !s.IsFalse(file) {
		t.Error("undeclared name has a declaration condition")
	}
}
