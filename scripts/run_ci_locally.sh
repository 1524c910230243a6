#!/usr/bin/env bash
# Run the same three jobs as .github/workflows/ci.yml on this machine.
#
#   lint        ruff check . (falls back to scripts/lint_fallback.py when
#               ruff is not installed — e.g. offline dev containers)
#   docs        README/docs link check + smoke-run of the README snippets
#   tests       CLI smoke + tier-1 pytest + the two race tests looped
#               200 times each
#   bench-smoke tiny end-to-end search with warm-cache assertions, the
#               service smoke (two concurrent sweeps sharing a cache), the
#               chaos smoke (fault-injected service invariants), and the
#               surrogate smoke + eval-reduction gate, and the Adam smoke
#               (compiled vs. statevector gradient per workload)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== job: lint ==="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "(ruff not installed; running offline fallback linter)"
    python scripts/lint_fallback.py
fi

echo "=== job: docs ==="
python scripts/check_docs.py

echo "=== job: tests (CLI smoke) ==="
python -m repro --help >/dev/null
python -m repro draw rx,ry --qubits 3 >/dev/null
echo "CLI smoke OK"

echo "=== job: tests (tier-1 pytest) ==="
python -m pytest -x -q

echo "=== job: tests (race tests, 200 consecutive passes each) ==="
python scripts/repeat_tests.py --times 200 \
    tests/core/test_cache_multitenant.py::TestConcurrency::test_parallel_tenants_share_work_without_duplicates \
    tests/service/test_service_multiplexer.py::TestFairness::test_max_running_per_tenant_caps_slot_share

echo "=== job: bench-smoke ==="
python scripts/ci_smoke.py --only search
python scripts/ci_smoke.py --only service
python scripts/ci_smoke.py --only chaos
python scripts/ci_smoke.py --only workloads
python scripts/ci_smoke.py --only surrogate
python scripts/ci_smoke.py --only adam
python scripts/ci_smoke.py --only cobyla
python scripts/bench_report.py
python benchmarks/bench_compiled_engine.py
python benchmarks/bench_batched_optimizers.py
python benchmarks/bench_sharded_runtime.py
python benchmarks/bench_surrogate.py

echo "=== all CI jobs green ==="
