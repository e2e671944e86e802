# Developer entry points for the EXION reproduction.
# Run `make help` for the annotated target list.

PYTHON ?= python
PYTHONPATH := src
BENCH_OUT ?= bench_results
BASELINE ?= benchmarks/baseline/BENCH_repro.json

# Coverage floor (percent) enforced on the numerically-critical packages.
COV_FLOOR ?= 75
COV_PKGS := --cov=repro.core --cov=repro.program --cov=repro.exec \
	--cov=repro.serve --cov=repro.cluster --cov=repro.obs \
	--cov=repro.obs.analyze

.PHONY: help test test-warnings lint coverage bench bench-smoke \
	bench-compare bench-asserts cache-smoke cluster-smoke serve-smoke \
	explore-smoke program-smoke trace-smoke obs-analyze-smoke \
	examples-smoke perfbench-quick smoke \
	docs-check check fleet-digests sample-digests

help:  ## list targets with their descriptions
	@awk -F':.*## ' '/^[a-zA-Z][a-zA-Z0-9_-]*:.*## / \
		{printf "  %-16s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

test:  ## tier-1 test suite (the CI gate)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

test-warnings:  ## numeric suites with every RuntimeWarning an error
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -W error::RuntimeWarning -m pytest \
		-x -q tests/core tests/exec tests/models

lint:  ## ruff check (pyflakes + pycodestyle errors)
	$(PYTHON) -m ruff check .

coverage:  ## tier-1 tests with the coverage floor on core+program+exec
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install pytest-cov"; \
		  exit 1; }
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q $(COV_PKGS) \
		--cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FLOOR)

bench:  ## full structured bench run -> bench_results/
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --run all \
		--out $(BENCH_OUT) --verbose

bench-smoke:  ## fast subset (tag:smoke) of the structured benches
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --run tag:smoke \
		--out $(BENCH_OUT)

bench-compare:  ## strict diff of bench_results/ against the committed baseline
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --strict \
		--compare $(BASELINE) $(BENCH_OUT)/BENCH_repro.json

bench-asserts:  ## the test_* assertions at the foot of every bench module
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_*.py \
		--import-mode=importlib -q

serve-smoke:  ## continuous-batching goodput bench + CLI demo run
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run serve_continuous --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro serve --continuous \
		--requests 6 --batch-size 4 --iterations 6 \
		--tenants alice=2,bob=1 --quantum 1.0

cluster-smoke:  ## fleet-simulation scaling bench + CLI demo run
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run cluster_scaling --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro cluster \
		--replicas 4 --requests 48 --rate 300 --router jsq \
		--slo-target 1.0

explore-smoke:  ## design-space Pareto bench + CLI demo run
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run explore_pareto --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro explore \
		--strategy random --budget 8 --iterations 8 --workers 2

cache-smoke:  ## plan-cache interning gate bench + parity tests
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run plan_cache --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
		tests/program/test_plan_cache.py \
		tests/exec/test_parity.py::TestSeededFuzz::test_repeated_generations_are_bit_equal \
		tests/exec/test_parity.py::TestBatchedParity::test_repeated_drained_batches_are_bit_equal

program-smoke:  ## lowering-pipeline parity bench + CLI plan inspection
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run program_lowering --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro program --model dit

trace-smoke:  ## observability gate bench + deterministic Perfetto trace
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run obs_overhead --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace --model dit \
		--continuous --iterations 12 --out $(BENCH_OUT)/trace.json

obs-analyze-smoke:  ## trace-analytics gate bench + CLI analyze/diff run
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		--run obs_analysis --out $(BENCH_OUT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro obs analyze --continuous \
		--iterations 12 --out $(BENCH_OUT)/analysis.json \
		--html $(BENCH_OUT)/analysis.html
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro obs diff \
		$(BENCH_OUT)/analysis.json $(BENCH_OUT)/analysis.json

examples-smoke:  ## run every examples/*.py script end to end
	@for example in examples/*.py; do \
		echo "$$example"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$example > /dev/null || exit 1; \
	done

perfbench-quick:  ## host-time benchmark at 1/50 scale (output checks on)
	$(PYTHON) -m perfbench --quick

smoke: bench-smoke cache-smoke serve-smoke cluster-smoke explore-smoke \
	program-smoke trace-smoke obs-analyze-smoke examples-smoke \
	perfbench-quick  ## all *-smoke targets + perfbench-quick

fleet-digests:  ## byte-identity gate: sha256 per fleet artefact vs tools/fleet_digests.txt
	$(PYTHON) tools/fleet_digests.py --check

sample-digests:  ## byte-identity gate: sha256 per generated sample vs tools/sample_digests.txt
	$(PYTHON) tools/sample_digests.py --check

docs-check:  ## docstring, __all__, prose-reference and reachability lint
	$(PYTHON) tools/docs_check.py

check: test test-warnings docs-check smoke sample-digests  ## test + test-warnings + docs-check + smoke + sample-digests
