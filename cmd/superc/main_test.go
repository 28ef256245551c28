package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guard/faultinject"
)

// chdirTemp makes a fresh directory holding files the working directory
// for the rest of the test, so units are named by relative paths.
func chdirTemp(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// armUnitPanic arms a fault plan that panics exactly poisoned among files
// at the parse-start fault point. Every fault decision is a pure function
// of (seed, unit, point), so the seed search is deterministic.
func armUnitPanic(t *testing.T, files []string, poisoned string) {
	t.Helper()
	t.Cleanup(faultinject.Disarm)
	for seed := int64(0); seed < 1000; seed++ {
		faultinject.Arm(faultinject.Config{Seed: seed, Rate: 0.5,
			Kinds: []faultinject.Kind{faultinject.KindPanic}, Points: []string{faultinject.PointParse}})
		only := true
		for _, f := range files {
			if fire, _ := faultinject.Fires(f, faultinject.PointParse); fire != (f == poisoned) {
				only = false
			}
		}
		if only {
			return
		}
	}
	t.Fatalf("no seed below 1000 panics %s alone", poisoned)
}

func runSuperc(args ...string) (stdout, stderr string, exit int) {
	var out, errs bytes.Buffer
	exit = run(args, &out, &errs)
	return out.String(), errs.String(), exit
}

// TestUnitPanicFailsAlone panics the middle unit of a three-file batch:
// superc must report that unit's panic, still print the other two
// summaries in argument order, and exit 1.
func TestUnitPanicFailsAlone(t *testing.T) {
	chdirTemp(t, map[string]string{
		"a.c": "int a;\n",
		"b.c": "int b(void) { return 1; }\n",
		"c.c": "#ifdef CONFIG_C\nint c = 1;\n#else\nlong c;\n#endif\n",
	})
	want, wantErr, exit := runSuperc("-j", "3", "a.c", "c.c")
	if exit != 0 || wantErr != "" || want == "" {
		t.Fatalf("fault-free a.c c.c: exit %d, stderr %q, stdout %q", exit, wantErr, want)
	}

	files := []string{"a.c", "b.c", "c.c"}
	armUnitPanic(t, files, "b.c")
	got, gotErr, exit := runSuperc(append([]string{"-j", "3"}, files...)...)
	if exit != 1 {
		t.Errorf("exit %d, want 1", exit)
	}
	if got != want {
		t.Errorf("stdout:\n%s\nwant the a.c and c.c summaries in order:\n%s", got, want)
	}
	const panicLine = "superc: panic processing b.c: faultinject: panic at " + faultinject.PointParse + " (unit b.c)\n"
	if gotErr != panicLine {
		t.Errorf("stderr %q, want %q", gotErr, panicLine)
	}
}

// TestMalformedRenameIsUsageError pins that a malformed -rename is rejected
// once, before any unit parses: one usage line, no output, exit 2 — however
// many files the batch names.
func TestMalformedRenameIsUsageError(t *testing.T) {
	chdirTemp(t, map[string]string{
		"a.c": "int counter;\n",
		"b.c": "int counter(void) { return 1; }\n",
	})
	for _, arg := range []string{"counter", "=c2", "counter="} {
		got, gotErr, exit := runSuperc("-rename", arg, "a.c", "b.c")
		if exit != 2 || got != "" || gotErr != "superc: -rename wants OLD=NEW\n" {
			t.Errorf("-rename %q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, one usage line",
				arg, exit, got, gotErr)
		}
	}
	if _, gotErr, exit := runSuperc("-rename", "counter=c2", "a.c", "b.c"); exit != 0 {
		t.Errorf("-rename counter=c2: exit %d, stderr %q", exit, gotErr)
	}
}
