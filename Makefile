# Convenience targets for the reproduction.

.PHONY: install test test-all lint bench bench-check bench-sched \
	bench-saeg bench-window bench-daemon \
	json-identity loc table2 \
	fig8 repair \
	gallery fuzz fuzz-smoke \
	fuzz-contract-smoke contract-matrix fault-smoke fault-sweep \
	chaos-smoke chaos-sweep engines-smoke serve-smoke bench-e2e bench-e2e-smoke \
	coverage all

install:
	pip install -e . || python setup.py develop

# Fast suite for day-to-day work; `make test-all` runs everything.
# The differential fuzz smoke run rides along so every `make test`
# also cross-checks the semantic layer pairs on fresh random inputs;
# the end-to-end benchmark smoke fails on a changed API it imports or
# a changed seed-0 digest.
test:
	pytest tests/ -q -m "not slow"
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-contract-smoke
	$(MAKE) fault-smoke
	$(MAKE) chaos-smoke
	$(MAKE) engines-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-e2e-smoke

test-all:
	pytest tests/ -q
	$(MAKE) fuzz-smoke

# Differential fuzzing (see src/repro/fuzz/).  `fuzz-smoke` is the
# ~30s CI budget: a fixed seed plus a wall-clock cap so it never
# stalls the suite; `fuzz` is an open-ended local run.
fuzz-smoke:
	python -m repro.cli fuzz --seed 0 --iterations 120 \
		--time-budget 25 --corpus fuzz-corpus

fuzz:
	python -m repro.cli fuzz --seed $${SEED:-0} \
		--iterations $${ITERATIONS:-2000} --corpus fuzz-corpus

# Contract-conformance gate (see benchmarks/contract_matrix.py): every
# shipped hardware policy x contract LCM cell must behave as the
# refinement relation predicts — conform cells exercise >=1
# ctrace-equal input pair with zero counterexamples, violate cells
# (unmodeled hardware) produce at least one.  `contract-matrix` is the
# open-ended measured sweep behind the EXPERIMENTS.md table.
fuzz-contract-smoke:
	python benchmarks/contract_matrix.py --smoke

contract-matrix:
	python benchmarks/contract_matrix.py \
		--seed $${SEED:-0} --programs $${PROGRAMS:-10}

# Degradation-monotonicity sweep (see benchmarks/fault_sweep.py): a
# seeded fault injector kills/starves the analysis at every declared
# injection point and asserts no LEAK<->SAFE verdict flip against the
# fault-free baseline.  `fault-smoke` is the ~3s CI subset.
fault-smoke:
	python benchmarks/fault_sweep.py --smoke

fault-sweep:
	python benchmarks/fault_sweep.py

# Serve-layer chaos sweep (see benchmarks/chaos_sweep.py): seeded
# transport faults (drop/stall/garble/crash) at every serve-side site
# (accept/read/write/dispatch), asserting every client call terminates
# inside its deadline with a result or a taxonomy exception, results
# are never corrupted (no LEAK<->SAFE flip), and the daemon neither
# wedges nor leaks its socket.  `chaos-smoke` is the ~15s CI subset.
chaos-smoke:
	python benchmarks/chaos_sweep.py --smoke

chaos-sweep:
	python benchmarks/chaos_sweep.py

# Engine-matrix smoke: every registered engine over one litmus program,
# asserting a LEAK exit and byte-identical --json across --jobs 1 vs 2.
engines-smoke:
	python benchmarks/engines_smoke.py

# Daemon smoke: boots `clou serve` on a temp socket, runs cold / warm
# / one-function-edit client analyses, asserts the exact cache-hit
# ledger, the warm-vs-cold speedup floor, and a clean SIGTERM exit.
serve-smoke:
	python benchmarks/serve_smoke.py

# Branch/line coverage with a floor on src/repro/.  Gated: pytest-cov
# is not vendored, so this degrades to a clear message instead of a
# cryptic pytest usage error when the plugin is missing.
coverage:
	@python -c "import pytest_cov" 2>/dev/null \
		|| { echo "coverage: pytest-cov is not installed; \
run 'pip install pytest-cov' first"; exit 1; }
	pytest tests/ -q -m "not slow" --cov=src/repro \
		--cov-report=term-missing --cov-fail-under=80

# Constant-time lint gate over the corpus's constant-time crypto
# implementations (message lengths are declared public; see §7).
# Exits non-zero if any function leaks at CT or worse.
lint:
	python -m repro.cli lint \
		src/repro/bench/corpus/crypto/tea.c \
		src/repro/bench/corpus/crypto/donna.c \
		src/repro/bench/corpus/crypto/chacha20.c \
		src/repro/bench/corpus/crypto/poly1305.c \
		src/repro/bench/corpus/crypto/hmac.c \
		src/repro/bench/corpus/crypto/secretbox.c \
		--public len,mlen,clen,inlen,bytes,outlen,n,count,rounds \
		--fail-on-severity CT

bench:
	pytest benchmarks/ --benchmark-only -q

# The pytest-benchmark files that drive ClouSession, with timing off:
# a check, under a minute, that they still run against the session API.
bench-check:
	pytest benchmarks/bench_table2_crypto.py benchmarks/bench_table2_litmus.py \
		benchmarks/bench_ablations.py benchmarks/bench_openssl_scale.py \
		benchmarks/bench_range_pruning.py benchmarks/bench_repair.py \
		--benchmark-disable -q

# End-to-end benchmark (see benchmarks/e2e/README.md): every workload
# at full size, one measured run each (each ends in a JSON line).
bench-e2e:
	python3 benchmarks/e2e/run.py

# End-to-end benchmark smoke (see benchmarks/e2e/README.md): every
# workload reduced, one untraced and one traced pass, with the
# known-answer and seed-0 digest checks; under 30 s.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# Scheduler speedup table (serial vs --jobs 4 vs warm cache), the pool's
# checkpoint traffic per openssl-jobs2 pass and `clou analyze --jobs 2`
# vs `--jobs 1` on the witness-heavy crypto files; writes
# BENCH_sched.json and fails if the two settings print different bytes.
# BASELINE=<checkout of an earlier commit>/src also times the CLI from
# that tree, the before/after columns of the committed file.
bench-sched:
	python benchmarks/bench_scheduler.py $(if $(BASELINE),--baseline $(BASELINE))

# S-AEG construction, per phase, against the original algorithms kept
# in tests/clou/saeg_reference.py (donna, chacha20, synth_60); writes
# BENCH_saeg.json and fails if the two builds differ.
bench-saeg:
	python benchmarks/bench_saeg_build.py

# §6.2.1 windows: `clou analyze --json` wall time per crypto file under
# its Table-2 engines and fwd, window walks vs distinct (S-AEG, block,
# bound) keys of one table2-crypto pass; writes BENCH_window.json and
# fails if the two trees print different bytes.  BASELINE=<checkout of
# an earlier commit>/src gives the before columns of the committed file.
bench-window:
	python benchmarks/bench_window.py $(if $(BASELINE),--baseline $(BASELINE))

# One `clou serve` request split into request decode, session.run,
# result.to_dict and response encode+send, plus the cyclic collector's
# time per generation, over the daemon-edit stream (seed 0); writes
# BENCH_daemon.json and fails if the trees' hit/miss ledgers differ.
# BASELINE=<checkout of an earlier commit>/src gives the before rows.
bench-daemon:
	python benchmarks/bench_daemon.py $(if $(BASELINE),--baseline $(BASELINE))

# The tracked `src/` size (ROADMAP): `wc -l` total of src/repro/**/*.py.
loc:
	@find src/repro -name '*.py' -exec cat {} + | wc -l

# `clou analyze --engine all --json` over the whole corpus, default config
# and four variants, byte-compared (stdout and exit code) against the
# source tree BASELINE; exits 1 on any difference.
json-identity:
	python benchmarks/json_identity.py --baseline $(BASELINE)

table2:
	python -m repro.bench.table2

fig8:
	python -m repro.bench.fig8

repair:
	python examples/fence_repair.py

gallery:
	python examples/spectre_gallery.py

all: test bench table2 fig8
