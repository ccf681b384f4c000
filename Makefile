.PHONY: all build test lint check bench bench-json bench-macro scale-quick clean

all: build

build:
	dune build

test:
	dune runtest

# Static checks over the installed .cmt tree of lib/, loaded once: the
# per-expression rules (determinism / allocation reachable from hot
# paths / protection boundaries), the interprocedural flow verifier
# (guest taint), the domain-safety detector (shared mutable state
# reachable from LP callbacks) and the resource-protocol verifier
# (acquire/release lifetimes for grants, pins, contexts and locks) —
# all four passes in one invocation with a single combined exit code;
# an unreadable .cmt or a summary fixpoint that does not converge exits
# 2. Also runs as part of `dune runtest`; this target additionally
# refreshes the LINT_stats.json artifact and fails if any
# unsuppressed-violation or suppression count grew versus the committed
# baseline (refresh deliberately by committing the new file).
lint:
	dune build @install
	dune exec lint/main.exe -- --stats LINT_stats.json \
	  --cmt _build/install/default/lib/cdna --gate LINT_stats.json

# One-shot CI entry: build, full test suite, static analysis + gate.
check:
	dune build
	dune runtest
	$(MAKE) lint

# Full Bechamel run: paper-table regeneration benchmarks + micro set.
bench:
	dune exec bench/main.exe

# Machine-readable micro results (ns/run + minor words/run), checked
# against the committed regression baseline. Refresh the baseline after
# an intentional performance change with:
#   dune exec bench/main.exe -- --json bench/baseline.json --quota 0.5
bench-json:
	dune exec bench/main.exe -- --json BENCH_micro.json --gate bench/baseline.json

# End-to-end sharded-engine benchmark: wall-clock and events/sec for the
# same 4-host scenario at shards 1 and 4, gated >2x against the
# committed baseline. Refresh after an intentional performance change:
#   dune exec bench/main.exe -- --macro bench/baseline_macro.json
# The gate also runs inside `dune runtest`, where the whole suite
# timeshares the machine — after refreshing, give memory-bound subjects
# (macro/open-loop-100k) headroom above their worst contended runtest
# number, not just the idle measurement.
bench-macro:
	dune exec bench/main.exe -- --macro BENCH_macro.json --macro-gate bench/baseline_macro.json

# Quick open-loop flow-scaling sweep (quartered windows): the
# 10^3..10^6 table of EXPERIMENTS.md in miniature. Full-window version:
#   dune exec bin/cdna_sim.exe -- scale
scale-quick:
	dune exec bin/cdna_sim.exe -- scale --quick

clean:
	dune clean
