package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cond"
	"repro/internal/token"
)

// The TestWalker* tests check the resolver's traversal: which nodes it
// reaches, under which path conditions, with error regions opaque. A tree
// wrapped in a compound statement makes every identifier leaf a use, and
// with nothing declared a use's Escaped condition is exactly the
// disjunction of the paths reaching it.

func leaf(text string) *ast.Node {
	return ast.Leaf(token.Token{Kind: token.Identifier, Text: text})
}

// inBody wraps a tree so the resolver reads its leaves as uses.
func inBody(root *ast.Node) *ast.Node { return ast.New("CompoundStatement", root) }

// enumerate returns every assignment over the variable names.
func enumerate(vars []string) []map[string]bool {
	out := []map[string]bool{{}}
	for _, v := range vars {
		next := make([]map[string]bool, 0, 2*len(out))
		for _, a := range out {
			on := make(map[string]bool, len(a)+1)
			off := make(map[string]bool, len(a)+1)
			for k, val := range a {
				on[k], off[k] = val, val
			}
			on[v], off[v] = true, false
			next = append(next, on, off)
		}
		out = next
	}
	return out
}

// usesUnder returns the sorted leaf texts the resolution reaches under the
// assignment.
func usesUnder(s *cond.Space, r *Resolution, assign map[string]bool) []string {
	var out []string
	for _, u := range r.Uses {
		if s.Eval(u.Escaped, assign) {
			out = append(out, u.Tok.Text)
		}
	}
	sort.Strings(out)
	return out
}

// projectTokens returns the sorted leaf texts of the brute-force single-
// configuration projection, outside error regions.
func projectTokens(s *cond.Space, root *ast.Node, assign map[string]bool) []string {
	var out []string
	ast.Walk(ast.Project(s, root, assign), func(n *ast.Node) bool {
		if n.IsError() {
			return false
		}
		if n.Kind == ast.KindToken {
			out = append(out, n.Tok.Text)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// checkDifferential compares the resolution's condition-filtered view
// against brute-force projection under each configuration. Every leaf of
// root must be read as a use: wrap it with inBody, or give it file-scope
// items that are compound statements.
func checkDifferential(t *testing.T, s *cond.Space, root *ast.Node, configs []map[string]bool) {
	t.Helper()
	r := resolve(s, root)
	for _, assign := range configs {
		got := strings.Join(usesUnder(s, r, assign), " ")
		want := strings.Join(projectTokens(s, root, assign), " ")
		if got != want {
			t.Fatalf("config %v:\nresolver: %q\nproject:  %q", assign, got, want)
		}
	}
}

func useOf(r *Resolution, name string) (Use, bool) {
	for _, u := range r.Uses {
		if u.Tok.Text == name {
			return u, true
		}
	}
	return Use{}, false
}

func TestWalkerDeeplyNestedChoices(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	// A 12-deep tower of binary choices: each level splits on its own
	// variable, the taken branch descends, the other holds a marker leaf.
	const depth = 12
	var vars []string
	inner := leaf("bottom")
	for i := depth - 1; i >= 0; i-- {
		v := fmt.Sprintf("V%02d", i)
		vars = append(vars, v)
		inner = ast.NewChoice(
			ast.Choice{Cond: s.Var(v), Node: ast.New("Level", inner)},
			ast.Choice{Cond: s.Not(s.Var(v)), Node: leaf("stop" + v)},
		)
	}
	root := ast.New("Unit", inner)

	// The bottom leaf's condition must be the conjunction of every level.
	bottom, found := useOf(resolve(s, inBody(root)), "bottom")
	if !found {
		t.Fatal("bottom leaf not reached")
	}
	want := s.True()
	for _, v := range vars {
		want = s.And(want, s.Var(v))
	}
	if !s.Equal(bottom.Escaped, want) {
		t.Errorf("bottom cond = %s, want %s", s.String(bottom.Escaped), s.String(want))
	}

	// Differential over a sample of configurations (2^12 is too many to
	// enumerate cheaply; all-on, all-off, and random assignments suffice).
	rng := rand.New(rand.NewSource(7))
	configs := []map[string]bool{{}, {}}
	for _, v := range vars {
		configs[0][v] = true
		configs[1][v] = false
	}
	for i := 0; i < 32; i++ {
		a := make(map[string]bool, len(vars))
		for _, v := range vars {
			a[v] = rng.Intn(2) == 0
		}
		configs = append(configs, a)
	}
	checkDifferential(t, s, inBody(root), configs)
}

func TestWalkerSharedChoiceNodes(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a, b := s.Var("A"), s.Var("B")
	// One subtree shared by both alternatives of an outer choice — the DAG
	// shape subparser merging produces. The resolver must visit it once per
	// path, under each path's condition: the error region inside it counts
	// twice, and the shared choice node's reach is the union of both paths.
	shared := ast.NewChoice(
		ast.Choice{Cond: b, Node: ast.New("Both", leaf("with_b"), ast.Error("abandoned"))},
		ast.Choice{Cond: s.Not(b), Node: leaf("without_b")},
	)
	root := ast.New("Unit", ast.NewChoice(
		ast.Choice{Cond: a, Node: ast.New("Left", leaf("left"), shared)},
		ast.Choice{Cond: s.Not(a), Node: ast.New("Right", leaf("right"), shared)},
	))

	r := resolve(s, inBody(root))
	if r.ErrorRegions != 2 {
		t.Errorf("ErrorRegions = %d, want 2 (once per path)", r.ErrorRegions)
	}
	reached := false
	for _, re := range r.Reach {
		if re.Node == shared {
			reached = true
			if !s.IsTrue(re.Cond) {
				t.Errorf("shared node reach = %s, want 1", s.String(re.Cond))
			}
		}
	}
	if !reached {
		t.Fatal("shared choice node not reached")
	}
	if u, _ := useOf(r, "with_b"); !s.Equal(u.Escaped, b) {
		t.Errorf("with_b cond = %s, want B", s.String(u.Escaped))
	}
	checkDifferential(t, s, inBody(root), enumerate([]string{"A", "B"}))
}

func TestWalkerErrorOpacity(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	// An error region under one alternative: nothing inside it may be
	// resolved, and the skip is counted.
	abandoned := &ast.Node{Kind: ast.KindNode, Label: ast.ErrorLabel, Children: []*ast.Node{leaf("hidden")}}
	root := ast.New("Unit",
		ast.NewChoice(
			ast.Choice{Cond: a, Node: leaf("ok")},
			ast.Choice{Cond: s.Not(a), Node: abandoned},
		),
		leaf("after"),
	)
	r := resolve(s, inBody(root))
	if r.ErrorRegions != 1 {
		t.Errorf("ErrorRegions = %d, want 1", r.ErrorRegions)
	}
	var seen []string
	for _, u := range r.Uses {
		seen = append(seen, u.Tok.Text)
	}
	if strings.Join(seen, " ") != "ok after" {
		t.Errorf("uses %v, want [ok after]", seen)
	}
}

func TestWalkerPrunesInfeasibleAlternatives(t *testing.T) {
	s := cond.NewSpace(cond.ModeBDD)
	a := s.Var("A")
	// Under path condition A, the !A alternative must not be entered.
	inner := ast.NewChoice(
		ast.Choice{Cond: a, Node: leaf("feasible")},
		ast.Choice{Cond: s.Not(a), Node: ast.Error("infeasible")},
	)
	root := ast.NewChoice(ast.Choice{Cond: a, Node: inner})
	r := resolve(s, inBody(root))
	if len(r.Uses) != 1 || r.Uses[0].Tok.Text != "feasible" {
		t.Errorf("uses %+v, want [feasible]", r.Uses)
	}
	if r.ErrorRegions != 0 {
		t.Errorf("ErrorRegions = %d: an infeasible alternative was entered", r.ErrorRegions)
	}
}

// TestWalkerDifferentialRandomTrees builds random choice DAGs (nested
// choices with disjoint alternative conditions, shared subtrees) and checks
// the resolver against per-configuration projection under every assignment.
func TestWalkerDifferentialRandomTrees(t *testing.T) {
	vars := []string{"A", "B", "C", "D"}
	for seed := int64(0); seed < 20; seed++ {
		s := cond.NewSpace(cond.ModeBDD)
		rng := rand.New(rand.NewSource(seed))
		nextLeaf := 0
		var build func(depth int) *ast.Node
		build = func(depth int) *ast.Node {
			if depth <= 0 || rng.Intn(3) == 0 {
				nextLeaf++
				return leaf(fmt.Sprintf("t%d", nextLeaf))
			}
			switch rng.Intn(4) {
			case 0: // binary choice on a fresh variable, disjoint alts
				v := s.Var(vars[rng.Intn(len(vars))])
				return ast.NewChoice(
					ast.Choice{Cond: v, Node: build(depth - 1)},
					ast.Choice{Cond: s.Not(v), Node: build(depth - 1)},
				)
			case 1: // shared subtree under complementary alternatives
				v := s.Var(vars[rng.Intn(len(vars))])
				shared := build(depth - 1)
				return ast.NewChoice(
					ast.Choice{Cond: v, Node: ast.New("L", build(depth-1), shared)},
					ast.Choice{Cond: s.Not(v), Node: ast.New("R", shared)},
				)
			case 2: // interior node
				return ast.New("N", build(depth-1), build(depth-1))
			default: // list with an occasional absent alternative
				v := s.Var(vars[rng.Intn(len(vars))])
				return ast.List("Items",
					build(depth-1),
					ast.NewChoice(ast.Choice{Cond: v, Node: build(depth - 1)}),
				)
			}
		}
		root := ast.New("Unit", build(4))
		checkDifferential(t, s, inBody(root), enumerate(vars))

		// A file-scope spine in the shapes FMLR builds: a flattened
		// top-level list whose merged prefixes are choices, each shared by
		// every later alternative, and one item reached both through a
		// leading edge and through a non-leading one.
		item := func() *ast.Node { return inBody(build(2)) }
		unit := ast.List(spineList, item())
		for step := 0; step < 6; step++ {
			v := s.Var(vars[rng.Intn(len(vars))])
			switch rng.Intn(4) {
			case 0: // an unconditional item
				unit = ast.List(spineList, unit, item())
			case 1: // #ifdef v item #endif
				unit = ast.NewChoice(
					ast.Choice{Cond: v, Node: ast.List(spineList, unit, item())},
					ast.Choice{Cond: s.Not(v), Node: unit},
				)
			case 2: // #ifdef v item #else item #endif
				unit = ast.NewChoice(
					ast.Choice{Cond: s.Not(v), Node: ast.List(spineList, unit, item())},
					ast.Choice{Cond: v, Node: ast.List(spineList, unit, item())},
				)
			default: // the item starts the list under !v and follows the prefix under v
				it := item()
				unit = ast.NewChoice(
					ast.Choice{Cond: v, Node: ast.List(spineList, unit, it)},
					ast.Choice{Cond: s.Not(v), Node: ast.List(spineList, it)},
				)
			}
		}
		checkDifferential(t, s, unit, enumerate(vars))
	}
}

// fileDecl builds the file-scope declaration "int name;".
func fileDecl(name string) *ast.Node {
	return ast.New("Declaration",
		ast.New("DeclarationSpecifiers", ast.New("TypeSpecifier", leaf("int"))),
		ast.New("IdentifierDeclarator", leaf(name)))
}

// funcDef builds the function definition "int name() { uses... }".
func funcDef(name string, uses ...string) *ast.Node {
	var body []*ast.Node
	for _, u := range uses {
		body = append(body, leaf(u))
	}
	return ast.New("FunctionDefinition",
		ast.New("DeclarationSpecifiers", ast.New("TypeSpecifier", leaf("int"))),
		ast.New("IdentifierDeclarator", leaf(name)),
		ast.New("CompoundStatement", body...))
}

// TestWalkerSpineNodeOnNonLeadingEdge: "#ifdef A int x; #endif int y;"
// where the two subparsers share y's subtree. y starts the !A list, a
// leading edge, so it is a spine node visited once under !A; under A it
// follows x, a non-leading edge, and keeps its own visit there. A use in y
// must see x declared under A and missing under !A, in either order of
// the alternatives.
func TestWalkerSpineNodeOnNonLeadingEdge(t *testing.T) {
	for _, notFirst := range []bool{false, true} {
		s := cond.NewSpace(cond.ModeBDD)
		a := s.Var("A")
		y := funcDef("y", "x", "y")
		alts := []ast.Choice{
			{Cond: a, Node: ast.List(spineList, fileDecl("x"), y)},
			{Cond: s.Not(a), Node: ast.List(spineList, y)},
		}
		if notFirst {
			alts[0], alts[1] = alts[1], alts[0]
		}
		root := ast.NewChoice(alts...)
		r := resolve(s, root)
		u, ok := useOf(r, "x")
		if !ok {
			t.Fatal("use of x not reached")
		}
		if !u.Declared || !s.Equal(u.Missing, s.Not(a)) || !s.IsTrue(u.Escaped) {
			t.Errorf("!A first %v: x declared %v, missing %s, escaped %s; want true, !A, 1",
				notFirst, u.Declared, s.String(u.Missing), s.String(u.Escaped))
		}
		var decls []string
		for _, d := range r.Decls {
			decls = append(decls, d.Tok.Text+":"+s.String(d.Cond))
		}
		sort.Strings(decls)
		if got, want := strings.Join(decls, " "), "x:A y:1"; got != want {
			t.Errorf("!A first %v: decls %q, want %q", notFirst, got, want)
		}

		// The differential, with the item bodies read as uses.
		x, z := inBody(leaf("x")), inBody(leaf("z"))
		shared := inBody(ast.NewChoice(
			ast.Choice{Cond: a, Node: leaf("under_a")},
			ast.Choice{Cond: s.Not(a), Node: leaf("under_not_a")},
		))
		alts = []ast.Choice{
			{Cond: a, Node: ast.List(spineList, x, shared)},
			{Cond: s.Not(a), Node: ast.List(spineList, shared)},
		}
		if notFirst {
			alts[0], alts[1] = alts[1], alts[0]
		}
		checkDifferential(t, s, ast.List(spineList, ast.NewChoice(alts...), z), enumerate([]string{"A"}))
	}
}
