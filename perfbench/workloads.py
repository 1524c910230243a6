"""The benchmark's three workloads: their inputs, how to run them, and the
checks every output must pass.

* ``sweep_cobyla`` / ``sweep_adam`` call ``repro.api.search`` in-process,
  one sweep at a time (serial, no cache): the paper's default path and
  the gradient path.
* ``service_tenants`` drives an in-process ``SearchService`` over HTTP
  from two closed-loop client threads (tenants ``a`` and ``b``), each with
  one sweep outstanding, through a fixed multiset of sweep specs
  (:data:`SERVICE_MIX`). The seed only permutes the order of the specs,
  so every seed does the same training work.

Everything that imports ``repro`` does so inside a function, so this
module imports without the package on the path.
"""

from __future__ import annotations

import math
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "SERVICE_MIX",
    "SERVICE_MIN_PASSES",
    "SWEEPS",
    "ServiceRequest",
    "SweepWorkload",
    "check_search_result",
    "prepare",
    "planned_trainings",
    "same_result",
    "service_plan",
]

#: candidates per depth in the default space (k = 1..2 combinations of the
#: 5-gate alphabet: 5 + 10)
CANDIDATES_PER_DEPTH = 15


@dataclass(frozen=True)
class SweepWorkload:
    """One in-process ``repro.api.search`` call, repeated."""

    spec: str
    depths: int
    #: ``repro.api.Config`` fields besides ``seed``
    options: dict = field(default_factory=dict)

    def config(self, seed: int):
        from repro.api import Config

        return Config(seed=seed, **self.options)


SWEEPS: dict[str, SweepWorkload] = {
    "sweep_cobyla": SweepWorkload("er:3", 3),
    "sweep_adam": SweepWorkload("er:2", 2, {"optimizer": "adam", "steps": 20}),
}


def prepare(name: str) -> None:
    """The set-up every run of workload ``name`` pays before it measures:
    resolve the workload's graphs, solve their classical oracle, and run a
    one-candidate sweep so lazy imports and memo tables are warm."""
    import repro.api
    from repro.core.evaluator import classical_optima

    if name in SWEEPS:
        spec, config = SWEEPS[name].spec, SWEEPS[name].config(0)
    else:
        spec, config = SERVICE_WORKLOAD, service_config(0)
    graphs = repro.api.resolve_workload(spec)
    classical_optima(graphs, config.workload)
    repro.api.search(graphs, depths=1, config=replace(config, num_samples=1, steps=10))


def run_sweep(workload: SweepWorkload, seed: int):
    """One timed facade sweep: ``(result, wall seconds)``."""
    import repro.api

    config = workload.config(seed)
    start = time.perf_counter()
    result = repro.api.search(workload.spec, depths=workload.depths, config=config)
    return result, time.perf_counter() - start


def check_search_result(result, depths: int,
                        per_depth: int = CANDIDATES_PER_DEPTH) -> list[str]:
    """Problems with one sweep's output (empty when it is well formed):
    the expected depths and candidate counts, finite energies, ratios in
    (0, 1], and a best candidate that is the best evaluation."""
    problems = []
    got = [d.p for d in result.depth_results]
    if got != list(range(1, depths + 1)):
        problems.append(f"depths {got}, expected 1..{depths}")
    best = None
    for depth in result.depth_results:
        if len(depth.evaluations) != per_depth:
            problems.append(
                f"p={depth.p}: {len(depth.evaluations)} candidates, expected {per_depth}"
            )
        for e in depth.evaluations:
            if not all(math.isfinite(v) for v in (e.energy, *e.per_graph_energy)):
                problems.append(f"p={e.p} {e.tokens}: non-finite energy")
            if not 0.0 < e.ratio <= 1.0:
                problems.append(f"p={e.p} {e.tokens}: ratio {e.ratio} outside (0, 1]")
            if best is None or e.ratio > best.ratio:
                best = e
    if best is not None and (
        result.best_ratio != best.ratio
        or (tuple(result.best_tokens), result.best_p) != (best.tokens, best.p)
    ):
        problems.append(
            f"best {result.best_tokens}@p={result.best_p} ({result.best_ratio}) is "
            f"not the best evaluation {best.tokens}@p={best.p} ({best.ratio})"
        )
    return problems


def _evaluation_identity(e) -> tuple:
    return (tuple(e.tokens), e.p, e.energy, e.ratio, tuple(e.per_graph_energy),
            tuple(e.per_graph_ratio), e.nfev, tuple(map(tuple, e.best_params)))


def same_result(a, b) -> bool:
    """Whether two sweeps found the same thing: best candidate and every
    evaluation's trained numbers (timings and cache accounting aside)."""
    if (tuple(a.best_tokens), a.best_p, a.best_ratio) != (
        tuple(b.best_tokens), b.best_p, b.best_ratio
    ):
        return False
    return [
        [_evaluation_identity(e) for e in d.evaluations] for d in a.depth_results
    ] == [[_evaluation_identity(e) for e in d.evaluations] for d in b.depth_results]


# -- service_tenants -----------------------------------------------------------

SERVICE_WORKLOAD = "er:3"
SERVICE_TENANTS = ("a", "b")
#: ``repro.api.Config`` fields shared by every service sweep
SERVICE_OPTIONS = {"optimizer": "spsa", "restarts": 4, "steps": 20}
#: the fixed multiset of sweep specs each tenant submits: (config seed,
#: depths, copies). Both tenants submit the same sequence, so the first
#: sweep of a spec trains and writes its candidates while the other
#: tenant's copy loses the claims and waits for the puts; every later copy
#: is served by the shared cache. A quarter of the sweeps are slow (8
#: trainers and 8 waiters of 64), so the median sits well inside the
#: cache-served sweeps and p90 well inside the slow ones, and the slow ones
#: never train two specs at once. Every spec has depth 1: a depth-2
#: trainer takes several times longer and would form a latency class of
#: its own at the top of the tail.
SERVICE_MIX: tuple[tuple[int, int, int], ...] = tuple(
    (config_seed, 1, 4) for config_seed in range(1, 9)
)
#: fewest passes per run (2 x 64 sweeps: p90 has 12 samples beyond it);
#: each pass starts a fresh service, so its cache starts cold
SERVICE_MIN_PASSES = 2
#: fixed client poll interval (``Client.wait`` backs off with jitter)
POLL_SECONDS = 0.02
#: per-sweep client deadline; a sweep past it counts as failed
SWEEP_TIMEOUT = 60.0


@dataclass(frozen=True)
class ServiceRequest:
    tenant: str
    config_seed: int
    depths: int

    @property
    def spec(self) -> tuple[int, int]:
        return (self.config_seed, self.depths)


def service_plan(seed: int) -> list[ServiceRequest]:
    """Every tenant's sweeps: the mix in one seeded order, which each
    tenant submits in turn. Only the order depends on ``seed``."""
    specs = [(s, d) for s, d, copies in SERVICE_MIX for _ in range(copies)]
    random.Random(seed).shuffle(specs)
    return [ServiceRequest(t, s, d) for t in SERVICE_TENANTS for s, d in specs]


def planned_trainings(plan: list[ServiceRequest]) -> int:
    """Distinct candidate trainings a plan needs: every (config seed, p)
    up to the deepest sweep of that seed, times the candidates per depth."""
    deepest: dict[int, int] = {}
    for request in plan:
        deepest[request.config_seed] = max(
            deepest.get(request.config_seed, 0), request.depths
        )
    return CANDIDATES_PER_DEPTH * sum(deepest.values())


def service_config(config_seed: int, tenant: str = "default"):
    from repro.api import Config

    return Config(seed=config_seed, tenant=tenant, **SERVICE_OPTIONS)


def reference_results() -> dict[tuple[int, int], object]:
    """Every distinct spec of the mix run in-process through the facade."""
    import repro.api

    return {
        (s, d): repro.api.search(SERVICE_WORKLOAD, depths=d, config=service_config(s))
        for s, d, _ in SERVICE_MIX
    }


@dataclass
class SweepRecord:
    """What one client saw of one sweep."""

    request: ServiceRequest
    job_id: str | None = None
    status: dict | None = None
    result: object | None = None
    error: str | None = None
    rejected: int = 0


class ServiceHarness:
    """An in-process service behind its HTTP front end, in ``directory``."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.service = None
        self.server = None
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        from repro.service.server import SearchService, make_http_server

        self.service = SearchService(self.directory, max_concurrent=2, workers=2)
        self.service.start()
        self.server = make_http_server(self.service)
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-http", daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=30)
        if self.service is not None:
            self.service.stop(drain_timeout=10.0)
        shutil.rmtree(self.directory, ignore_errors=True)


def _drive_tenant(url: str, requests: list[ServiceRequest],
                  records: list[SweepRecord], deadline: float) -> None:
    """One closed-loop client: submit, poll at a fixed interval, fetch."""
    import repro.api
    from repro.api import ServiceError

    client = repro.api.connect(url, timeout=30.0)
    for request in requests:
        record = SweepRecord(request)
        records.append(record)
        if time.monotonic() > deadline:
            record.error = "not submitted: the run's deadline passed"
            continue
        config = service_config(request.config_seed, tenant=request.tenant)
        try:
            while record.job_id is None:
                try:
                    record.job_id = client.submit(
                        SERVICE_WORKLOAD, depths=request.depths, config=config
                    )
                except ServiceError as error:
                    if error.status != 429 or record.rejected >= 50:
                        raise
                    record.rejected += 1
                    time.sleep(0.1)
            give_up = min(time.monotonic() + SWEEP_TIMEOUT, deadline)
            while True:
                status = client.status(record.job_id)
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                if time.monotonic() > give_up:
                    raise TimeoutError(f"sweep still {status['state']}")
                time.sleep(POLL_SECONDS)
            record.status = status
            if status["state"] != "done":
                raise RuntimeError(f"sweep {status['state']}: {status.get('error')}")
            record.result = client.result(record.job_id)
        except Exception as error:  # noqa: BLE001 - recorded as a failed sweep
            record.error = f"{type(error).__name__}: {error}"


@dataclass
class PassOutcome:
    records: list[SweepRecord]
    #: ``time.monotonic()`` when the clients started, and their wall time
    started: float
    seconds: float
    cache_hits: int
    cache_misses: int
    queue_retries: int


def run_service_pass(directory: Path, plan: list[ServiceRequest],
                     deadline: float) -> PassOutcome:
    """Start a fresh service, run the whole plan through it, stop it.
    Sweeps not finished by ``deadline`` (``time.monotonic``) fail."""
    harness = ServiceHarness(directory)
    harness.start()
    try:
        per_tenant: dict[str, list[SweepRecord]] = {t: [] for t in SERVICE_TENANTS}
        threads = [
            threading.Thread(
                target=_drive_tenant,
                args=(harness.url, [r for r in plan if r.tenant == t], per_tenant[t],
                      deadline),
                name=f"perfbench-tenant-{t}", daemon=True,
            )
            for t in SERVICE_TENANTS
        ]
        started, start = time.monotonic(), time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 30.0)
        seconds = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a tenant client did not finish")
        cache = harness.service.cache
        return PassOutcome(
            [r for t in SERVICE_TENANTS for r in per_tenant[t]],
            started,
            seconds,
            cache.hits,
            cache.misses,
            harness.service.multiplexer.queue_retries,
        )
    finally:
        harness.stop()
