GO ?= go

.PHONY: ci build test race vet fmt bench bench-check chaos chaos-daemon guard-overhead complexity-gate lint analyze-smoke superc-smoke daemon-smoke link-smoke docs-lint

ci: lint build race bench-check analyze-smoke superc-smoke daemon-smoke link-smoke chaos-daemon

lint: fmt vet docs-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every internal package must carry a package doc comment (DESIGN.md links
# into them; an undocumented package is invisible to godoc readers).
docs-lint:
	@out=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...); \
		if [ -n "$$out" ]; then \
			echo "packages missing a package doc comment:"; echo "$$out"; exit 1; fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench . -benchmem -timeout 60m

# bench/ is a nested module the root ./... never reaches: vet it and run its
# toy-size workload tests (~5 s). The benchmark itself is bash bench/run.sh.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fault-injection corpus run under the race detector (CI's chaos-smoke).
# Replay a failure with CHAOS_SEED=<seed from the log>.
chaos:
	$(GO) test -race -v -run 'Chaos|Deadline|CancelAbandons|BudgetLimitsFlow' ./internal/harness/

# Service-layer fault injection under the race detector (CI's chaos-daemon):
# HTTP faults against the thin client's retry/breaker stack, store crash
# consistency, overload shedding, graceful drain — over a fixed seed matrix.
# Replay one schedule with CHAOS_SEED=<seed>.
chaos-daemon:
	@sh scripts/chaos_daemon.sh

# Assert the resource governor costs < 3% on the parse stage.
guard-overhead:
	GUARD_OVERHEAD=1 $(GO) test -run TestGuardOverhead -v .

# Per-layer growth t(4k)/t(1k) on the giant unit; the sequential parse must
# stay within 5 (linear reads ~4), name resolution within 6 and at 4k within
# the sequential parse's time, the other layers are logged (~75 s).
complexity-gate:
	COMPLEXITY_GATE=1 $(GO) test -run TestComplexityGate -v -timeout 30m .

# clint over the seeded-bug fixtures must reproduce the golden JSON exactly
# (CI's analyze-smoke). clint exits 1 when diagnostics are reported, so the
# expected-failure status is checked explicitly.
analyze-smoke:
	@$(GO) build -o clint.smoke ./cmd/clint
	@./clint.smoke -I examples/clint -format json \
		examples/clint/config_bugs.c examples/clint/clean.c > clint.got.json; \
		status=$$?; \
		if [ "$$status" -ne 1 ]; then echo "clint exit $$status, want 1"; rm -f clint.smoke clint.got.json; exit 1; fi
	@diff clint.got.json examples/clint/golden.json && echo "analyze-smoke: golden match"
	@rm -f clint.smoke clint.got.json

# superc over the seeded-bug fixtures must reproduce the golden text exactly:
# the -print rendering of config_bugs.c, then the two-unit summary without
# its tables: line (the parse-table cache state depends on the machine), at
# -j 1 and at -j 8 (CI's "superc fixtures vs golden text"). Then superc
# -check over the two-unit check example must reproduce its golden at both
# widths; superc exits 1 when conflicts are reported. Last, the gcc-spelling
# example must reproduce its golden at both widths: -print and -rename of
# examples/gnu/ext.c, then the summary of ext.c with stray.c, whose stray
# '@' makes superc exit 1.
superc-smoke:
	@$(GO) build -o superc.smoke ./cmd/superc
	@for j in "-j 1" "-j 8"; do \
		{ ./superc.smoke $$j -I examples/clint -print -stats=false examples/clint/config_bugs.c && \
		  ./superc.smoke $$j -I examples/clint examples/clint/config_bugs.c examples/clint/clean.c | grep -v '^tables:'; \
		} > superc.got.txt 2>&1 || { echo "superc $$j failed"; cat superc.got.txt; rm -f superc.smoke superc.got.txt; exit 1; }; \
		diff superc.got.txt examples/clint/superc.golden.txt || { rm -f superc.smoke superc.got.txt; exit 1; }; \
		(cd examples/check && ../../superc.smoke $$j -check -stats=false s1.c s2.c) > check.got.txt 2>&1; \
		status=$$?; \
		if [ "$$status" -ne 1 ]; then echo "superc -check $$j exit $$status, want 1"; cat check.got.txt; rm -f superc.smoke superc.got.txt check.got.txt; exit 1; fi; \
		diff check.got.txt examples/check/golden.txt || { rm -f superc.smoke superc.got.txt check.got.txt; exit 1; }; \
		(cd examples/gnu && ../../superc.smoke $$j -print -stats=false ext.c && \
		  ../../superc.smoke $$j -rename __inline__=foo -stats=false ext.c) > gnu.got.txt 2>&1 || \
			{ echo "superc gnu $$j failed"; cat gnu.got.txt; rm -f superc.smoke superc.got.txt check.got.txt gnu.got.txt; exit 1; }; \
		(cd examples/gnu && ../../superc.smoke $$j ext.c stray.c) > gnu.gotsum.txt 2>&1; \
		status=$$?; \
		grep -v '^tables:' gnu.gotsum.txt >> gnu.got.txt; \
		if [ "$$status" -ne 1 ]; then echo "superc gnu summary $$j exit $$status, want 1"; cat gnu.got.txt; rm -f superc.smoke superc.got.txt check.got.txt gnu.got.txt gnu.gotsum.txt; exit 1; fi; \
		diff gnu.got.txt examples/gnu/golden.txt || { rm -f superc.smoke superc.got.txt check.got.txt gnu.got.txt gnu.gotsum.txt; exit 1; }; \
	done
	@rm -f superc.smoke superc.got.txt check.got.txt gnu.got.txt gnu.gotsum.txt
	@echo "superc-smoke: golden match at -j 1 and -j 8 (print, summary, -check, gnu)"

# Cold-then-warm superd round trip over a persisted store: outputs must be
# byte-identical and the warm batch must be served from disk artifacts
# (CI's daemon-smoke). Requires curl.
daemon-smoke:
	@sh scripts/daemon_smoke.sh

# clint -link over the seeded two-unit link corpus must reproduce the golden
# text exactly, at -j1, at -j8 and in SAT condition mode (CI's link-smoke). clint exits 1 when findings
# are reported, so the expected-failure status is checked explicitly.
link-smoke:
	@$(GO) build -o clint.smoke ./cmd/clint
	@cd examples/link && ../../clint.smoke -link -I . a.c b.c > ../../link.got.txt; \
		status=$$?; \
		if [ "$$status" -ne 1 ]; then echo "clint -link exit $$status, want 1"; rm -f clint.smoke link.got.txt; exit 1; fi
	@diff link.got.txt examples/link/golden.txt || { rm -f clint.smoke link.got.txt; exit 1; }
	@cd examples/link && ../../clint.smoke -link -j 8 -I . a.c b.c > ../../link.got8.txt; \
		status=$$?; \
		if [ "$$status" -ne 1 ]; then echo "clint -link -j8 exit $$status, want 1"; rm -f clint.smoke link.got.txt link.got8.txt; exit 1; fi
	@diff link.got.txt link.got8.txt || { rm -f clint.smoke link.got.txt link.got8.txt; exit 1; }
	@cd examples/link && ../../clint.smoke -link -mode sat -I . a.c b.c > ../../link.gotsat.txt; \
		status=$$?; \
		if [ "$$status" -ne 1 ]; then echo "clint -link -mode sat exit $$status, want 1"; rm -f clint.smoke link.got.txt link.got8.txt link.gotsat.txt; exit 1; fi
	@diff link.gotsat.txt examples/link/golden.txt && echo "link-smoke: golden match at -j1, -j8 and -mode sat"
	@rm -f clint.smoke link.got.txt link.got8.txt link.gotsat.txt
