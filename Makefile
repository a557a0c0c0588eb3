.PHONY: all build test check check-dispatch check-refusal check-constraints fmt smoke serve-smoke segments-smoke soundness fuzz bench bench-par bench-batch bench-quotient bench-kernels bench-ff bench-msm bench-serve bench-segments bench-regress clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting + full test suite, run sequentially AND with a 4-domain
# prover pool: proofs must be byte-identical at every job count. The
# suite includes the soundness mutation tests (test_soundness.ml), the
# executor differential tests (test_differential.ml) and the serving
# layer / batch verification tests (test_serve.ml).
# A short fixed-seed fuzz pass rides along in the suite (test/fuzz_inputs.ml);
# the long run is `make fuzz`.
# ocamlformat is optional in the dev container, so fmt degrades to a
# no-op when it is not installed.
check: fmt build
	$(MAKE) check-dispatch
	$(MAKE) check-refusal
	ZKML_JOBS=1 dune runtest --force
	ZKML_JOBS=4 dune runtest --force
	$(MAKE) check-constraints
	$(MAKE) serve-smoke
	$(MAKE) segments-smoke
	-$(MAKE) bench-regress

# One backend dispatch (hard gate): the per-backend instances and
# parameters are named only in lib/serve/backends.ml; every other
# program file chooses a backend with Backends.select. Tests, bench/
# and perfbench/ are exempt.
DISPATCH_NAMES = Pipe_kzg|Pipe_ipa|Serve_kzg|Serve_ipa|kzg_params|ipa_params
check-dispatch:
	@hits=$$(grep -rnE '$(DISPATCH_NAMES)' bin lib \
		| grep -v '^lib/serve/backends\.ml:'); \
	if [ -n "$$hits" ]; then \
		echo "check-dispatch: backend instances named outside lib/serve/backends.ml:"; \
		echo "$$hits"; \
		exit 1; \
	fi; \
	echo "check-dispatch: ok"

# Refused inputs (hard gate): gpt2 seeds 1-3 include inputs whose
# softmax leaves its lookup table. `zkml prove` must answer each with
# exit 0 (proved) or 2 (refused, one stderr line), never with an
# uncaught exception (exit 125). An unknown model name must exit 2.
REFUSAL_DIR ?= _build/check-refusal
check-refusal: build
	@mkdir -p $(REFUSAL_DIR); \
	for s in 1 2 3; do \
		dune exec bin/zkml_cli.exe -- prove gpt2 --seed $$s \
			-o $(REFUSAL_DIR)/gpt2-$$s.zkp >/dev/null 2>$(REFUSAL_DIR)/err; \
		code=$$?; \
		if [ $$code -eq 125 ] || grep -q 'uncaught exception' $(REFUSAL_DIR)/err; then \
			echo "check-refusal: gpt2 seed $$s exited $$code:"; \
			cat $(REFUSAL_DIR)/err; \
			exit 1; \
		fi; \
	done; \
	dune exec bin/zkml_cli.exe -- prove nosuchmodel \
		-o $(REFUSAL_DIR)/nosuchmodel.zkp >/dev/null 2>$(REFUSAL_DIR)/err; \
	code=$$?; \
	if [ $$code -ne 2 ]; then \
		echo "check-refusal: unknown model exited $$code (expected 2):"; \
		cat $(REFUSAL_DIR)/err; \
		exit 1; \
	fi; \
	echo "check-refusal: ok"

# Under-constraint detector (hard gate): run the gadget isolation suite
# and every zoo model's compiled circuit through the randomized
# second-witness search over the typed constraint IR. Pinned seed, so a
# finding replays exactly; exits non-zero on any under-constrained cell
# or honest-witness violation.
check-constraints: build
	dune exec bin/zkml_cli.exe -- check-constraints --seed 1234

# Circuit-soundness mutation suite alone, pinned seed (1234 inside the
# suite): every mutated witness/key/proof must be rejected or refused —
# zero accepted mutants. Runs the slow big-model groups as well.
soundness: build
	dune exec test/test_soundness.exe

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# Quick end-to-end sanity run: prove MNIST under the tracer, print the
# span tree and cost-model accuracy report, dump a chrome trace.
smoke: build
	dune exec bin/zkml_cli.exe -- profile mnist --trace /tmp/zkml-trace.json
	@echo "chrome trace written to /tmp/zkml-trace.json"

# Serving-daemon smoke test: fork a unix-socket daemon, replay 30
# seeded mixed requests (proves, verifies of honest and tampered
# proofs, malformed frames, pings) at concurrency 3, then shut it down
# over the wire. The loadgen asserts every expected answer — tampered
# proofs must come back verdict 1, malformed frames verdict 2, the
# daemon must survive all of it and exit 0 — and itself exits non-zero
# on any miss, so this target is a hard gate in `make check`.
SERVE_SMOKE_SOCK ?= /tmp/zkml-serve-smoke-$(shell echo $$$$).sock
serve-smoke: build
	dune exec bin/zkml_cli.exe -- loadgen --spawn \
		--socket $(SERVE_SMOKE_SOCK) \
		--seed 9 --requests 30 --concurrency 3 --models mnist,dlrm

# Split-and-aggregate smoke test (hard gate in `make check`): prove
# mnist monolithically and at --segments 4, assert both are accepted
# and that seam-tampered / spliced / truncated variants are rejected
# with the documented verdicts. Exits non-zero on any miss.
segments-smoke: build
	dune exec bin/zkml_cli.exe -- segments-smoke

# Long deterministic malformed-input fuzz over the model-text,
# proof-file and wire-frame corpora. Seeded, so a failure reproduces
# exactly; exits non-zero if any mutant is accepted or any exception
# escapes.
fuzz: build
	dune exec bin/zkml_cli.exe -- fuzz --iters 2000 --seed 42

bench: build
	dune exec bench/main.exe -- table6 --json /tmp/zkml-bench.json

# Multicore prover scaling: prove a seed model at jobs=1/2/4, assert
# byte-identical proofs, write BENCH_PR2.json with the timings.
bench-par: build
	dune exec bench/main.exe -- par

# Serving-layer amortization: batch-of-8 prove/verify through the
# artifact cache vs 8 independent single runs (final-check counts
# included).
bench-batch: build
	dune exec bench/main.exe -- batch

# Quotient-evaluator comparison: prove every zoo model with the
# interpreter oracle and with the compiled evaluator, assert the proofs
# are byte-identical, write BENCH_PR5.json with rows/sec per model.
bench-quotient: build
	dune exec bench/main.exe -- quotient

# Field / MSM / NTT kernel microbenchmarks (PR 7): field ops through
# a functor parameter, Jacobian vs batch-affine+GLV Pippenger
# (paths asserted equal), stage-major vs cache-blocked NTT (asserted
# element-identical), plus the retuned window table. The full run
# regenerates the committed BENCH_PR7.json baseline.
bench-kernels: build
	dune exec bench/main.exe -- kernels

# Filtered kernel runs for quick iteration; they write a partial
# BENCH_PR7.json, so it goes to a scratch dir instead of clobbering
# the committed baseline (regenerate that with bench-kernels).
bench-ff: build
	ZKML_BENCH_DIR=_build/bench ZKML_BENCH_KERNELS=ff \
		dune exec bench/main.exe -- kernels

bench-msm: build
	ZKML_BENCH_DIR=_build/bench ZKML_BENCH_KERNELS=msm,ntt \
		dune exec bench/main.exe -- kernels

# Serving-daemon load benchmark: spawn a daemon, replay the full seeded
# mix and write the per-kind latency percentiles + proofs/sec to the
# committed BENCH_PR9.json baseline (schema {"bench":"serve",...}).
bench-serve: build
	dune exec bin/zkml_cli.exe -- loadgen --spawn \
		--socket /tmp/zkml-bench-serve-$(shell echo $$$$).sock \
		--seed 9 --requests 60 --concurrency 4 --models mnist,dlrm \
		--bench-out BENCH_PR9.json

# Split-and-aggregate proving benchmark: per model the monolithic vs
# 4-segment prove wall, aggregate verify wall and the row counts (peak
# segment rows must undercut the monolithic circuit). The full run
# regenerates the committed BENCH_PR10.json baseline.
bench-segments: build
	dune exec bench/main.exe -- segments

# Bench-regression gate: re-measure a reduced par + quotient sample
# plus the kernel microbenchmarks, a serving-daemon load sample and a
# split-and-aggregate proving sample into $(REGRESS_DIR) and compare
# per-key medians against the committed BENCH_PR2/PR5/PR7/PR9/PR10
# baselines. A key regresses when
# current > baseline * REGRESS_THRESHOLD. Warn-only by default (always
# exits 0); STRICT=1 makes a regression fail the target. Tune the
# sample with REGRESS_MODELS / REGRESS_JOBS.
REGRESS_DIR ?= _build/regress
REGRESS_MODELS ?= mnist,dlrm
REGRESS_JOBS ?= 1
REGRESS_THRESHOLD ?= 1.75
bench-regress: build
	ZKML_BENCH_DIR=$(REGRESS_DIR) ZKML_BENCH_JOBS=$(REGRESS_JOBS) \
		dune exec bench/main.exe -- par
	ZKML_BENCH_DIR=$(REGRESS_DIR) ZKML_BENCH_MODELS=$(REGRESS_MODELS) \
		dune exec bench/main.exe -- quotient
	ZKML_BENCH_DIR=$(REGRESS_DIR) \
		dune exec bench/main.exe -- kernels
	dune exec bin/zkml_cli.exe -- loadgen --spawn \
		--socket /tmp/zkml-regress-serve-$(shell echo $$$$).sock \
		--seed 9 --requests 30 --concurrency 3 --models $(REGRESS_MODELS) \
		--bench-out $(REGRESS_DIR)/BENCH_PR9.json
	ZKML_BENCH_DIR=$(REGRESS_DIR) ZKML_BENCH_MODELS=$(REGRESS_MODELS) \
		dune exec bench/main.exe -- segments
	dune exec bench/regress.exe -- --threshold $(REGRESS_THRESHOLD) \
		$(if $(STRICT),--strict,) \
		--baseline BENCH_PR2.json --current $(REGRESS_DIR)/BENCH_PR2.json \
		--baseline BENCH_PR5.json --current $(REGRESS_DIR)/BENCH_PR5.json \
		--baseline BENCH_PR7.json --current $(REGRESS_DIR)/BENCH_PR7.json \
		--baseline BENCH_PR9.json --current $(REGRESS_DIR)/BENCH_PR9.json \
		--baseline BENCH_PR10.json --current $(REGRESS_DIR)/BENCH_PR10.json

clean:
	dune clean
