PYTHON ?= python
export PYTHONPATH := src

.PHONY: test props paper reach tier2-bench-smoke ledger ledger-smoke ledger-ab flight explain obs-cmp

# Tier-1: the full unit/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# Tier-2: the eight differential batteries (new code against the old
# code kept verbatim in the test file, or the engine against a
# list-and-min() scheduler) at 1000 examples each instead of tier-1's
# 40-300, and the spec round-trip battery (a run rebuilt from its own
# experiment spec is the same run) at 150 instead of 8.
props:
	HYPOTHESIS_PROFILE=thorough $(PYTHON) -m pytest -q \
		tests/net/test_trie_property.py tests/click/test_classifier_property.py \
		tests/click/test_elements.py::test_dispatch_equals_the_port_it_replaced \
		tests/phys/test_cpu_property.py tests/traffic/test_solver_property.py \
		tests/traffic/test_plane_property.py \
		tests/sim/test_engine_property.py tests/phys/test_link_property.py \
		tests/core/test_spec_roundtrip.py

# Tier-2: the paper's evaluation (Tables 2-6, Figs 6/8/9, the BGP mux
# and four ablations, ~2 min on a 2-core host). Every scenario of
# benchmarks/paper.py runs once, is held to its claims, and rewrites its
# numbers in benchmarks/results/paper.json and its table in
# EXPERIMENTS.md; seeds are fixed, so `git diff` afterwards shows
# exactly what moved.
paper:
	$(PYTHON) -m pytest -q benchmarks/run_paper.py

# Tier-2: the reach audit (~7 min on two cores). Every paper scenario,
# ledger workload, example and repro.obs verb runs under a call-only
# trace; the functions of src/repro none of them entered are rewritten
# into benchmarks/results/unreached.txt, so `git diff` afterwards shows
# what stopped being reached (or started to be). A row needs a line in
# DESIGN.md's "Kept without a run" table.
reach:
	$(PYTHON) benchmarks/reach.py

# Tier-2: the ledger at smoke scale (every benchmark workload, tiny)
# plus the env-gated scale tests (the 200-AS internet build). Catches
# a broken workload without paying for a real perf run.
tier2-bench-smoke: ledger-smoke
	REPRO_SCALE_TESTS=1 $(PYTHON) -m pytest -q -m tier2_bench_smoke \
		tests/topologies/test_internet.py

# The performance ledger: five paper-scenario workloads, end-to-end
# turnaround plus a per-layer traced run (~40 s). Results land in
# benchmarks/ledger/out/ledger.json; compare two with
# `python benchmarks/ledger/compare.py BASE.json NEW.json`.
ledger:
	$(PYTHON) benchmarks/ledger/run.py

# The ledger at smoke scale plus its self-tests: proves every workload
# still runs and checks out, says nothing about speed.
ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --scale 0.05 --repeats 1
	$(PYTHON) -m pytest -q benchmarks/ledger/tests

# A/B two checkouts on the ledger: N alternating pairs of full sets
# (BASE = a clone of the parent commit, NEW = the change), each set kept
# under benchmarks/results/ledger_ab/, then every workload x metric with
# its ratio set by set. ~75 s a pair; nothing else should be running.
# ARGS goes through to each checkout's benchmarks/ledger/run.py.
#   make ledger-ab BASE=/tmp/parent NEW=. [N=4] [ARGS="--only fluid-churn --repeats 5"]
ledger-ab:
	$(PYTHON) benchmarks/ledger_ab.py $(BASE) $(NEW) --sets $(or $(N),4) $(ARGS)

# Flight recorder: slowest-flight latency decomposition of a Table-5
# ping run, plus a Perfetto trace under benchmarks/results/.
flight:
	$(PYTHON) -m repro.obs flight --config plvini --slowest 10 \
		--export benchmarks/results/flight_table5.json

# The Fig-8 observatory: the Abilene failover with every collector
# installed, landed as one manifest-hashed RunArchive under
# benchmarks/results/archives/fig8 (JSONL trace + live feed + flight
# records + sampler series + report.md/report.json). `explain` runs it
# and walks the causal chain: fault -> convergence episode -> blackhole
# windows -> affected flights. `python -m repro.obs diff A B` compares
# two such archives record by record; `python -m repro.obs perfetto A
# OUT.json` renders one's flights for https://ui.perfetto.dev.
explain:
	$(PYTHON) -m repro.obs fig8 benchmarks/results/archives/fig8
	$(PYTHON) -m repro.obs explain benchmarks/results/archives/fig8

# Byte identity of the Fig-8 observatory against another checkout
# (BASE = a clone of the parent commit): builds a plain and a nudged
# (--nudge-index 137 --nudge-dt 1e-3) fig8 archive from BASE and from
# this checkout, in a fresh temporary directory outside any git checkout
# so the manifest's commit is null on both sides, and prints
# "identical" or "DIFFERS" for every file both sides wrote, "only-base"
# or "only-new" for a file one side alone wrote (a renamed artifact).
#   make obs-cmp BASE=/tmp/parent
obs-cmp:
	@test -n "$(BASE)" || { echo "usage: make obs-cmp BASE=<clone of the parent>" >&2; exit 2; }
	@base=$$(cd "$(BASE)" && pwd) && new=$$(pwd) && work=$$(mktemp -d) && \
	cd "$$work" && \
	for side in "$$base base" "$$new new"; do set -- $$side; \
	  PYTHONPATH="$$1/src" $(PYTHON) -m repro.obs fig8 "$$2" > /dev/null && \
	  PYTHONPATH="$$1/src" $(PYTHON) -m repro.obs fig8 "$$2-nudged" \
	    --nudge-index 137 --nudge-dt 1e-3 > /dev/null || exit 1; \
	done && \
	for run in "" -nudged; do \
	  for name in $$( (ls "base$$run"; ls "new$$run") | sort -u); do \
	    if [ ! -e "new$$run/$$name" ]; then verdict=only-base; \
	    elif [ ! -e "base$$run/$$name" ]; then verdict=only-new; \
	    elif cmp -s "base$$run/$$name" "new$$run/$$name"; then verdict=identical; \
	    else verdict=DIFFERS; fi; \
	    printf '%-9s %s\n' "$$verdict" "fig8$$run/$$name"; \
	  done; \
	done; \
	cd / && rm -rf "$$work"
