# Test tiers.
#
#   make test    — tier 1: unit + property + integration (excludes stress
#                  via pyproject addopts); the gate every change must pass.
#   make stress  — the seeded fault-injection scenarios in tests/stress
#                  (pytest -m stress overrides the addopts exclusion).
#   make chaos   — the adversarial-debuggee do-no-harm sweep in
#                  tests/chaos (each scenario across ≥10 seeds).
#   make flake   — the integration tier ten times in a row under CPU
#                  contention; one red run fails the target.
#   make check   — the first three tiers.
#
# Every target is wall-clock bounded so a wedged scenario kills the run
# instead of the CI job.

PYTHON      ?= python
PYTHONPATH  := src
TIER1_LIMIT ?= 900
STRESS_LIMIT ?= 600
CHAOS_LIMIT ?= 900
# Per-test cap (seconds), enforced inside pytest (pytest-timeout when
# installed, SIGALRM fallback otherwise) so a single wedged test fails
# with its name attached instead of burning the whole job limit.
TEST_TIMEOUT ?= 120

BENCH_LIMIT ?= 900

.PHONY: test stress chaos flake check lint-hotpath bench bench-json bench-trace bench-fleet bench-fork

test:
	timeout $(TIER1_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		DIONEA_TEST_TIMEOUT=$(TEST_TIMEOUT) $(PYTHON) -m pytest -x

stress:
	timeout $(STRESS_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		DIONEA_TEST_TIMEOUT=$(TEST_TIMEOUT) $(PYTHON) -m pytest tests/stress -m stress

# Adversarial debuggees (hung/raising/fork-calling handlers, exec,
# daemonize, mid-fork SIGKILL) swept across seeds under the do-no-harm
# harness: debugged output, exit status and forkability must be
# byte-identical to the bare run.
chaos:
	timeout $(CHAOS_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		DIONEA_TEST_TIMEOUT=$(TEST_TIMEOUT) $(PYTHON) -m pytest tests/chaos -m chaos

# Flake hunt: a flake is a bug with a reproduction loop.  Two busy-loop
# processes keep a two-core CI runner contended while the integration
# tier runs ten times, so thread hand-offs (heartbeats, parks, reactor
# wake-ups) race the way a loaded host makes them race.
flake:
	timeout 3600 sh -c ' \
		hogs=""; \
		for i in 1 2; do \
			$(PYTHON) -c "while True: pass" & hogs="$$hogs $$!"; \
		done; \
		trap "kill $$hogs 2>/dev/null" EXIT INT TERM; \
		for run in $$(seq 10); do \
			echo "flake: run $$run of 10"; \
			env PYTHONPATH=$(PYTHONPATH) \
				DIONEA_TEST_TIMEOUT=$(TEST_TIMEOUT) \
				$(PYTHON) -m pytest -x tests/integration || exit 1; \
		done'

# Hot-path discipline: the tracing/forkhooks/mp/obs packages must never
# import stdlib `logging` (module lock + eager formatting + I/O).
lint-hotpath:
	$(PYTHON) tools/lint_hotpath.py

# Telemetry overhead artifact: the §7 overhead pair plus the
# metrics-on vs metrics-off arm, written to BENCH_obs.json.
bench-json:
	timeout $(BENCH_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		$(PYTHON) benchmarks/bench_obs.py --out BENCH_obs.json

# Trace-dispatch overhead artifact: the §7 overhead pair under the
# per-code fast path, plus the no-breakpoint attach arm (gated at 15%
# over the normal run) — written to BENCH_trace.json.  Nonzero exit on
# any gate breach.
bench-trace:
	timeout $(BENCH_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		$(PYTHON) benchmarks/bench_trace.py --out BENCH_trace.json

# Fleet-scale client artifact: 200 forked debug-server workers attached
# by one client — gates the O(1) thread bill, the pipelined-sweep
# speedup over the serial baseline, and the idle-attached CPU budget.
# Written to BENCH_fleet.json; nonzero exit on any gate breach.
bench-fleet:
	timeout $(BENCH_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		$(PYTHON) benchmarks/bench_fleet.py --out BENCH_fleet.json

# Fork-latency artifact: the parent-side prepare-fast-path bracket cost
# under an attached debugger, gated at ≤ 2× a bare fork(2); end-to-end
# cycle medians recorded ungated for context.  Written to
# BENCH_fork.json; nonzero exit on a gate breach.
bench-fork:
	timeout $(BENCH_LIMIT) env PYTHONPATH=$(PYTHONPATH) \
		$(PYTHON) benchmarks/bench_fork.py --out BENCH_fork.json

bench: bench-json bench-trace bench-fleet bench-fork

check: lint-hotpath test stress chaos
