# Convenience targets for the HCS reproduction.

PY := PYTHONPATH=src python

.PHONY: test test-chaos test-crash test-stress test-shard \
	test-ingest test-gateway test-resilience bench-wah-smoke \
	bench-wah bench-repo-smoke bench-repo bench docs

# Tier-1 verification (what CI must keep green).
test:
	$(PY) -m pytest -x -q

# Deterministic fault-injection suite (seeded per test node id).
test-chaos:
	$(PY) -m pytest -m chaos -q

# Write-path crash matrix: a simulated crash at every commit-protocol
# step of the durable store, recovery asserted bit-identical to a
# fault-free oracle (subset of the chaos suite; seeded per node id).
test-crash:
	$(PY) -m pytest -m crash -q

# Concurrency hammer tests: run with an aggressive thread switch
# interval (an autouse fixture applies sys.setswitchinterval(1e-6) to
# every stress-marked test) to surface interleaving bugs.
test-stress:
	$(PY) -m pytest -m stress -q

# Delta-generation lifecycle suite: ingest (LSM-style appends),
# merge-on-read, compaction, and the chaos tests interleaving them
# with scrubs and queries under seeded faults.
test-ingest:
	$(PY) -m pytest -m ingest -q

# Sharded scatter-gather serving tests: spawn real worker processes
# (slower than the in-process suite; CI runs them in the serving job).
test-shard:
	$(PY) -m pytest -m shard -q

# Asyncio serving-gateway tests: micro-batching, admission control,
# deadlines, SLO metrics, replica failover (includes the chaos tests
# that kill a shard worker mid-batch and assert oracle-identical
# answers via failover).
test-gateway:
	$(PY) -m pytest -m gateway -q

# Self-healing edge suite: replica lifecycle (suspect → probation →
# re-admission or death), hedged requests, circuit breaking, and
# priority-aware admission — including the chaos test that kills both
# replica fleets sequentially and asserts both are re-admitted with
# oracle-identical answers and zero fleet drain.
test-resilience:
	$(PY) -m pytest -m resilience -q

# Smoke: execute the WAH kernel micro-benchmark with small operands
# and no timing assertions; writes no record.
bench-wah-smoke:
	WAH_BENCH_MODE=check $(PY) -m pytest benchmarks/test_micro_wah_kernels.py -q

# Full-scale WAH kernel micro-benchmark (asserts the >= 5x union_all
# speedup over the scalar reference and records it in BENCH_wah.json).
bench-wah:
	WAH_BENCH_MODE=full $(PY) -m pytest benchmarks/test_micro_wah_kernels.py -q

# Smoke: the repository benchmark (hcsbench) over every BENCHMARK.json
# workload at one seed, smoke sizes and --seconds 1; prints its rows
# and writes no file (exit 1 on a wrong answer).
bench-repo-smoke:
	python3 tools/bench_repo.py --smoke

# The repository benchmark over every BENCHMARK.json workload at seeds
# 101-105 and --seconds 10: writes one BENCH_repo.json row per workload
# and seed, keyed by `git describe --always --dirty`, and keeps the
# rows under other keys.
bench-repo:
	python3 tools/bench_repo.py

# Regenerate every paper figure/table benchmark.
bench:
	$(PY) -m pytest benchmarks/ -q

# Documentation gate: public-API docstring coverage (>= 90% for the
# package, 100% for the operator-facing gateway module), relative
# links, mkdocs nav completeness, and CLI-reference freshness (the
# generated docs/cli.md must match the live parser); runs
# `mkdocs build --strict` when mkdocs is installed (CI does; offline
# dev images need not).
docs:
	$(PY) tools/check_docstrings.py --fail-under 90
	$(PY) tools/check_docstrings.py --module repro.serve.gateway --fail-under 100
	python tools/check_docs.py
