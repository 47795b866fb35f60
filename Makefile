# Convenience wrappers around dune. `make coverage` needs bisect_ppx,
# which is deliberately NOT a build dependency — the instrumentation
# stanzas in lib/*/dune are inert unless dune is invoked with
# --instrument-with bisect_ppx, so regular builds and tests never see
# it. CI's coverage job installs it on top of the test switch.

.PHONY: all build test lint profile coverage check-coverage clean

all: build

build:
	dune build

test:
	dune runtest

lint:
	dune build @lint

# Line-coverage report (text summary + HTML under _coverage/). The
# reporter discovers the *.coverage files dune leaves under _build.
coverage:
	@command -v bisect-ppx-report >/dev/null 2>&1 || { \
	  echo "bisect_ppx is not installed; run: opam install bisect_ppx"; \
	  exit 1; }
	@find _build -name '*.coverage' -delete 2>/dev/null || true
	dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report html -o _coverage
	bisect-ppx-report summary --per-file
	@echo "HTML report: _coverage/index.html"

# CI gate: lib/corelite's mean per-file line coverage must not drop
# below the committed floor in .github/coverage-baseline.
check-coverage: coverage
	@baseline=$$(cat .github/coverage-baseline); \
	actual=$$(bisect-ppx-report summary --per-file \
	  | awk '/lib\/corelite\// { gsub(/%/, "", $$1); sum += $$1; n += 1 } \
	         END { if (n > 0) printf "%.0f", sum / n; else print 0 }'); \
	echo "lib/corelite mean line coverage: $$actual% (floor $$baseline%)"; \
	if [ "$$actual" -lt "$$baseline" ]; then \
	  echo "coverage regression: $$actual% < committed floor $$baseline%"; \
	  exit 1; \
	fi

# CPU profile of one benchmark workload (`make profile
# W=fattree-k16-1e5`): gprofng samples one untraced repetition of
# bench/perf/perf.exe and prints the 30 functions with the most
# exclusive CPU time. gprofng ships with GNU binutils >= 2.39; like
# bisect_ppx it is not a build dependency.
W ?= paper-figures

profile:
	@command -v gprofng >/dev/null 2>&1 || { \
	  echo "gprofng is not installed; it ships with GNU binutils >= 2.39"; \
	  exit 1; }
	dune build bench/perf/perf.exe
	@mkdir -p _profile
	rm -rf _profile/$(W).er
	gprofng collect app -o _profile/$(W).er \
	  ./_build/default/bench/perf/perf.exe --workload $(W) --trace 0 --seconds 1
	gprofng display text -limit 30 -functions _profile/$(W).er

clean:
	dune clean
	rm -rf _coverage _profile
