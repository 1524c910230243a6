#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cobyla --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload untraced and again under the span tracer and reports
the per-layer metrics and the tracing overhead. Either way the run prints
every metric with its unit, runs the output checks, writes a record
(environment, metrics, checks; spans when traced) under ``.perfbench/out/``
and prints one JSON object as its last line::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cobyla", "sweep_adam", "service_tenants")
#: set-up is timed this many times, each in a fresh interpreter
SETUP_PROBES = 3
#: seconds after start by which every sweep must have finished
RUN_DEADLINE = 150.0
#: fewest sweeps a run of a sweep workload times
MIN_SWEEPS = 2
#: traced sweeps per traced run of a sweep workload (their counts must agree)
TRACED_SWEEPS = 2
#: the cost centre each workload's trace is predicted to be led by: a layer,
#: or one of the engine's operations when the engine leads
PREDICTED_TOP = {
    "sweep_cobyla": "optimizers",
    "sweep_adam": "simulators.gradients",
    "service_tenants": "simulators.energies",
}
_ENGINE_OPS = ("energy", "energies", "gradients", "compile")
#: per-layer metrics of layers a sweep workload never reaches
_UNUSED_BY_SWEEPS = (
    "core.cache.hits", "core.cache.misses", "core.cache.lookups",
    "core.cache.hit_ratio", "service.queue_wait_s", "service.run_s",
    "service.rejected", "service.queue.retries",
)


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {ROOT / 'src'}; "
            "run it from a checkout of the repository"
        )
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workdir(*parts: str) -> Path:
    path = ROOT.joinpath(".perfbench", *parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _setup_once(workload: str) -> dict:
    """Time one set-up: import, workload resolution, oracle, warm-up, and
    for the service its start and bind."""
    started, start = time.monotonic(), time.perf_counter()
    from perfbench import workloads

    workloads.prepare(workload)
    harness = None
    if workload == "service_tenants":
        harness = workloads.ServiceHarness(_workdir("tmp", f"setup-{os.getpid()}"))
        harness.start()
    took = time.perf_counter() - start
    if harness is not None:
        harness.stop()
    return {"setup_s": took, "started": started}


class Run:
    """One invocation: its workload, speed probe, results and checks."""

    def __init__(self, args, probe) -> None:
        self.args = args
        self.probe = probe
        self.deadline = time.monotonic() + RUN_DEADLINE
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.problems: list[str] = []
        self.flags: list[str] = []
        self.details: dict = {}
        self.attempted = 0
        self.failed = 0
        self.spans = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def normalised(self, seconds: float, started: float) -> float:
        """``seconds`` of wall time from ``started`` (``time.monotonic``)
        at the probe's reference CPU speed."""
        return seconds / self.probe.factor(started, started + seconds)

    # -- set-up ------------------------------------------------------------

    def measure_setup(self) -> None:
        from perfbench.stats import median

        samples = []
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", self.args.workload],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            probe = json.loads(out.stdout.strip().splitlines()[-1])
            samples.append(self.normalised(probe["setup_s"], probe["started"]))
        self.metrics["setup_s"] = median(samples)
        self.notes["setup_s"] = f"median of {len(samples)} fresh interpreters"

    # -- sweep workloads ---------------------------------------------------

    def timed_sweep(self, workload):
        """One checked sweep: ``(result or None, wall seconds, normalised
        seconds)``."""
        from perfbench import workloads

        self.attempted += 1
        started, start = time.monotonic(), time.perf_counter()
        try:
            result, seconds = workloads.run_sweep(workload, self.args.seed)
        except Exception as error:  # noqa: BLE001 - a failed sweep is a result
            self.fail(f"sweep raised {type(error).__name__}: {error}")
            return None, time.perf_counter() - start, 0.0
        problems = workloads.check_search_result(result, workload.depths)
        if problems:
            self.fail("; ".join(problems))
            result = None
        return result, seconds, self.normalised(seconds, started)

    def sweep_end_to_end(self) -> None:
        from perfbench import workloads
        from perfbench.stats import median, percentile

        workload = workloads.SWEEPS[self.args.workload]
        done = []
        start = time.perf_counter()
        while True:
            result, took, normalised = self.timed_sweep(workload)
            if result is not None:
                done.append((result, took, normalised))
            if self.attempted >= MIN_SWEEPS and (
                time.perf_counter() - start + took > self.args.seconds
                or time.monotonic() + took > self.deadline
            ):
                break
        # in-process, the sweep is the request: its wall time is the latency
        times = [n for _, _, n in done]
        busy = sum(times)
        self.metrics.update({
            "sweep_s": median(times) if times else 0.0,
            "candidates_per_s": _ratio(sum(r.num_candidates for r, _, _ in done), busy),
            "best_ratio": median([r.best_ratio for r, _, _ in done]) if done else 0.0,
            "latency_s.p50": percentile(times, 0.5) if times else 0.0,
            "latency_s.p90": percentile(times, 0.9) if times else 0.0,
            "sweeps_per_s": _ratio(len(done), busy),
        })
        self.notes["sweep_s"] = f"median of {len(times)} sweeps"
        self.details["wall_sweep_s"] = [took for _, took, _ in done]
        self._note_latency("wall time of repro.api.search", len(times))

    def _note_latency(self, what: str, n: int) -> None:
        from perfbench.stats import reportable

        for q in ("p50", "p90"):
            short = "" if reportable(int(q[1:]) / 100, n) else (
                ", fewer than 10 samples beyond it"
            )
            self.notes[f"latency_s.{q}"] = f"{what}, n={n}{short}"

    def sweep_traced(self) -> None:
        from perfbench import workloads
        from perfbench.metrics import EXACT_COUNTS, distinct_trainings, layer_metrics
        from perfbench.stats import median
        from perfbench.tracing import Tracer

        workload = workloads.SWEEPS[self.args.workload]
        baseline, _, baseline_s = self.timed_sweep(workload)
        tracer = Tracer()
        traced = []
        with tracer:
            for index in range(TRACED_SWEEPS):
                tracer.set_sweep(f"sweep-{index}")
                traced.append(self.timed_sweep(workload))
            tracer.set_sweep(None)
        by_sweep = [
            [s for s in tracer.spans if s.sweep == f"sweep-{index}"]
            for index in range(TRACED_SWEEPS)
        ]
        per_sweep = [layer_metrics(spans) for spans in by_sweep]
        metrics = layer_metrics(tracer.spans, units=TRACED_SWEEPS)
        mismatched = [c for c in EXACT_COUNTS if len({m[c] for m in per_sweep}) != 1]
        for counter in mismatched:
            self.flags.append(
                f"count {counter} differs between traced sweeps of one seed: "
                f"{[m[counter] for m in per_sweep]}"
            )
        for index, (result, _, _) in enumerate(traced):
            if None not in (result, baseline) and not workloads.same_result(
                result, baseline
            ):
                self.fail(f"traced sweep {index} differs from the untraced sweep")
        coverage = [
            sum(v for k, v in m.items() if k.endswith(".self_s")) / took
            for m, (_, took, _) in zip(per_sweep, traced)
        ]
        duplicates = sum(
            trainings - distinct
            for trainings, distinct in map(distinct_trainings, by_sweep)
        )
        traced_s = median([n for _, _, n in traced])
        top = _top_cost_centre(metrics)
        metrics.update(dict.fromkeys(_UNUSED_BY_SWEEPS, 0.0))
        metrics.update({
            "core.cache.duplicate_trainings": duplicates / TRACED_SWEEPS,
            "core.runtime.jobs.retried": sum(
                r.config.get("jobs_retried", 0) for r, _, _ in traced if r is not None
            ) / TRACED_SWEEPS,
            "trace.sweep_s": traced_s,
            "trace.untraced_sweep_s": baseline_s,
            "trace.overhead_s": traced_s - baseline_s,
            "trace.coverage": median(coverage),
            "trace.count_mismatches": len(mismatched),
            "trace.prediction_ok": float(top == PREDICTED_TOP[self.args.workload]),
        })
        self.notes["trace.prediction_ok"] = (
            f"top cost centre {top}, predicted {PREDICTED_TOP[self.args.workload]}"
        )
        self.notes["trace.coverage"] = "layer self times over traced sweep wall time"
        self.metrics.update(metrics)
        self.spans = tracer.spans

    # -- service_tenants ---------------------------------------------------

    def check_records(self, records, references) -> list:
        """Output checks of one pass; returns the records that passed."""
        from perfbench import workloads

        passed = []
        for record in records:
            self.attempted += 1
            request = record.request
            if record.error is not None:
                self.fail(f"{request}: {record.error}")
            elif record.rejected:
                self.fail(f"{request}: rejected {record.rejected} time(s) before admission")
            elif problems := workloads.check_search_result(record.result, request.depths):
                self.fail(f"{request}: " + "; ".join(problems))
            elif not workloads.same_result(record.result, references[request.spec]):
                self.fail(f"{request}: differs from the in-process search of its spec")
            else:
                passed.append(record)
        return passed

    def service_passes(self, references, minimum: int, seconds: float,
                       plan_seed=None) -> list:
        """Run fresh-service passes until ``seconds`` have gone by (at least
        ``minimum``): ``[(plan, pass outcome, records that passed, factor)]``.
        Each pass gets its own plan unless ``plan_seed`` pins one."""
        from perfbench import workloads

        passes = []
        start = time.perf_counter()
        while True:
            index = len(passes)
            seed = plan_seed if plan_seed is not None else self.args.seed * 1000 + index
            plan = workloads.service_plan(seed)
            pass_start = time.perf_counter()
            outcome = workloads.run_service_pass(
                _workdir("tmp", f"{os.getpid()}-pass-{index}"), plan, self.deadline
            )
            factor = self.probe.factor(outcome.started, outcome.started + outcome.seconds)
            passed = self.check_records(outcome.records, references)
            passes.append((plan, outcome, passed, factor))
            took = time.perf_counter() - pass_start
            if len(passes) >= minimum and time.perf_counter() - start + took > seconds:
                break
            if time.monotonic() + took > self.deadline:
                break
        return passes

    def service_end_to_end(self) -> None:
        from perfbench import workloads
        from perfbench.stats import median, percentile

        references = workloads.reference_results()
        passes = self.service_passes(
            references, workloads.SERVICE_MIN_PASSES, self.args.seconds
        )
        latencies = [
            _latency(r) / factor for _, _, passed, factor in passes for r in passed
        ]
        runs = [_run_time(r) / factor for _, _, passed, factor in passes for r in passed]
        busy = sum(outcome.seconds / factor for _, outcome, _, factor in passes)
        ok = [r for _, _, passed, _ in passes for r in passed]
        trainings = sum(_trainings(outcome.records) for _, outcome, _, _ in passes)
        planned = sum(workloads.planned_trainings(plan) for plan, _, _, _ in passes)
        self.metrics.update({
            # the median would sit among cache-served sweeps, which measure
            # little work: the mean carries the trainings
            "sweep_s": _ratio(sum(runs), len(runs)),
            "candidates_per_s": _ratio(trainings, busy),
            "best_ratio": median([r.result.best_ratio for r in ok]) if ok else 0.0,
            "latency_s.p50": percentile(latencies, 0.5) if latencies else 0.0,
            "latency_s.p90": percentile(latencies, 0.9) if latencies else 0.0,
            "sweeps_per_s": _ratio(len(ok), busy),
        })
        self.notes["sweep_s"] = f"mean service run time of {len(runs)} sweeps"
        self.notes["candidates_per_s"] = f"{trainings} trainings, {planned} planned"
        self._note_latency("submitted_at to finished_at", len(latencies))
        wall = [_latency(r) for _, _, passed, _ in passes for r in passed]
        self.details.update(
            passes=len(passes), duplicate_trainings=trainings - planned,
            factors=[factor for *_, factor in passes],
            wall_pass_s=[outcome.seconds for _, outcome, _, _ in passes],
            wall_latency_s={"p50": percentile(wall, 0.5), "p90": percentile(wall, 0.9)}
            if wall else {},
        )
        if trainings > planned:
            self.flags.append(
                f"{trainings - planned} duplicate trainings: concurrent sweeps "
                "trained one candidate twice (the cache's get-then-claim race)"
            )

    def service_traced(self) -> None:
        from perfbench import workloads
        from perfbench.metrics import distinct_trainings, has_ancestor, layer_metrics
        from perfbench.tracing import OPERATIONS, Tracer

        references = workloads.reference_results()
        (_, _, untraced, untraced_factor), = self.service_passes(
            references, 1, 0.0, plan_seed=self.args.seed
        )
        tracer = Tracer()
        with tracer:
            (_, outcome, traced, factor), = self.service_passes(
                references, 1, 0.0, plan_seed=self.args.seed
            )
        spans = tracer.spans
        metrics = layer_metrics(spans)
        candidates = set(OPERATIONS["core.evaluator.candidate"])
        top = _top_cost_centre(layer_metrics([
            s for s in spans
            if s.name in candidates or has_ancestor(s, lambda a: a.name in candidates)
        ]))
        trainings, distinct = distinct_trainings(spans)
        statuses = [r.status for r in outcome.records if r.status]
        lookups = outcome.cache_hits + outcome.cache_misses
        runs = sum(s["finished_at"] - s["started_at"] for s in statuses)
        jobs = sum(s.duration for s in spans if s.name in OPERATIONS["service.job"])
        # mean run time per sweep, as the end-to-end sweep_s of this workload
        traced_s = _ratio(sum(_run_time(r) for r in traced) / factor, len(traced))
        untraced_s = _ratio(
            sum(_run_time(r) for r in untraced) / untraced_factor, len(untraced)
        )
        metrics.update({
            "core.cache.hits": outcome.cache_hits,
            "core.cache.misses": outcome.cache_misses,
            "core.cache.lookups": lookups,
            "core.cache.hit_ratio": _ratio(outcome.cache_hits, lookups),
            "core.cache.duplicate_trainings": trainings - distinct,
            "core.runtime.jobs.retried": sum(
                r.result.config.get("jobs_retried", 0) for r in outcome.records if r.result
            ),
            "service.queue_wait_s": sum(
                s["started_at"] - s["submitted_at"] for s in statuses
            ),
            "service.run_s": runs,
            "service.rejected": sum(r.rejected for r in outcome.records),
            "service.queue.retries": outcome.queue_retries,
            "trace.sweep_s": traced_s,
            "trace.untraced_sweep_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.coverage": _ratio(jobs, runs),
            "trace.count_mismatches": 0,
            "trace.prediction_ok": float(top == PREDICTED_TOP["service_tenants"]),
        })
        self.notes["trace.prediction_ok"] = (
            f"top cost centre within trainings {top}, predicted "
            f"{PREDICTED_TOP['service_tenants']}"
        )
        self.notes["core.cache.hit_ratio"] = f"{outcome.cache_hits} hits / {lookups} lookups"
        self.notes["trace.coverage"] = "traced job spans over the sweeps' run time"
        if trainings != distinct:
            self.flags.append(
                f"{trainings - distinct} duplicate trainings in the traced pass "
                f"({trainings} trainings of {distinct} distinct candidates)"
            )
        self.metrics.update(metrics)
        self.spans = spans

    # -- output ------------------------------------------------------------

    def report(self, environment: dict) -> dict:
        from perfbench.metrics import END_TO_END, PER_LAYER

        args = self.args
        catalog = PER_LAYER if args.trace else END_TO_END
        if args.trace:
            self.metrics["failed_share"] = _ratio(self.failed, self.attempted)
        missing = sorted(set(catalog) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        print(f"# environment: {json.dumps(environment, sort_keys=True)}")
        print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
              f"{self.attempted} attempted, {self.failed} failed")
        print(f"{'metric':40s} {'value':>14s}  {'unit':6s} {'better':6s}  note")
        for name, (unit, better, *_) in catalog.items():
            print(f"{name:40s} {self.metrics[name]:14.6g}  {unit:6s} {better:6s}  "
                  f"{self.notes.get(name, '')}")
        for problem in self.problems:
            print(f"FAILED: {problem}")
        for flag in self.flags:
            print(f"FLAG: {flag}")
        result = {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": spec[0]}
                for name, spec in catalog.items()
            },
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        out = _workdir("out")
        (out / f"{stem}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment, "result": result,
            "notes": self.notes, "problems": self.problems, "flags": self.flags,
            "details": self.details,
        }, indent=2, default=str))
        if self.spans is not None:
            from perfbench.tracing import dump_spans

            dump_spans(self.spans, out / f"{stem}-spans.jsonl")
        return result


def _latency(record) -> float:
    return record.status["finished_at"] - record.status["submitted_at"]


def _run_time(record) -> float:
    return record.status["finished_at"] - record.status["started_at"]


def _trainings(records) -> int:
    """Candidates the service trained for ``records``: each sweep's cache
    misses that no concurrent sweep served."""
    return sum(r.result.config.get("cache_misses", 0) for r in records if r.result)


def _top_cost_centre(metrics: dict[str, float]) -> str:
    """The largest of the layer self times, with the engine's layer split
    into its operations."""
    from perfbench.tracing import LAYERS

    centres = {
        layer: metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "simulators"
    }
    centres.update(
        {f"simulators.{op}": metrics[f"simulators.{op}_s"] for op in _ENGINE_OPS}
    )
    return max(centres, key=centres.get)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.setup_probe:
        print(json.dumps(_setup_once(args.workload)))
        return 0

    from perfbench import workloads
    from perfbench.env import environment
    from perfbench.probe import SpeedProbe

    # The process, its threads and the set-up interpreters it starts all run
    # on the one CPU the probe watches. The service's thread fleet runs
    # faster and steadier there than spread over two CPUs, where its threads
    # contend for the interpreter lock across CPUs (see README.md).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        with SpeedProbe(cpu, _workdir("tmp") / f"speed-{os.getpid()}.log") as probe:
            run = Run(args, probe)
            if not args.trace:
                run.measure_setup()
            workloads.prepare(args.workload)
            if args.workload == "service_tenants":
                run.service_traced() if args.trace else run.service_end_to_end()
            elif args.trace:
                run.sweep_traced()
            else:
                run.sweep_end_to_end()
            run.metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
            )
    finally:
        shutil.rmtree(ROOT / ".perfbench" / "tmp", ignore_errors=True)
    env = environment(ROOT)
    env["cpu_measured"] = cpu
    print(json.dumps(run.report(env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
