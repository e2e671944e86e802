"""The four workloads, driven only through names ``repro`` exports.

Each workload derives every input (request seeds, class labels, tenants,
arrival gaps) from ``--seed``; the program sees only those inputs. A
workload offers:

- ``prepare()``   build models / pipelines (part of set-up time);
- ``first_op()``  the first operation, returning a digest of its output;
- ``run(ops, rec, clock)``  the timed operations, one :class:`Outcome`;
  ``clock`` samples the machine-speed reference between timed calls;
- ``check(outcome)``  the correctness checks, ``(attempted, failed)``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ExionConfig
from repro.cluster import (
    MMPPProcess,
    SLOPolicy,
    WorkloadMix,
    build_replicas,
    make_router,
    simulate_cluster,
    synthesize_trace,
)
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.obs import Observer
from repro.obs.analyze import analyze_tracer, render_html
from repro.program import get_plan_cache, plan_digest
from repro.serve import ContinuousPolicy, ContinuousServer

from perfbench.refclock import NO_CLOCK
from perfbench.spans import OFF
from perfbench.spec import CELL_REQUESTS, WORKLOAD_NAMES

#: ``--quick`` (1/50 scale, used by the tests) also shortens every
#: denoising schedule and cell so a whole run fits in about a second.
QUICK_ITERATIONS = 6
QUICK_CELL_REQUESTS = 24
SEED_BOUND = 2**31 - 1


@dataclass
class Outcome:
    """What one pass over a workload's timed operations measured."""

    call_s: list = field(default_factory=list)  # wall seconds per timed call
    units: int = 0  # work units completed (samples / simulated requests)
    busy_s: float = 0.0  # summed wall time of the timed calls
    failed: int = 0  # ops that raised, were refused or failed a check
    exact: dict = field(default_factory=dict)  # counts that repeat exactly
    extra: dict = field(default_factory=dict)  # workload-private hand-over


def sample_digest(result) -> str:
    """sha256 over a generation's sample bytes and its stats summary."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.sample).tobytes())
    h.update(json.dumps(result.stats.summary(), sort_keys=True).encode())
    return h.hexdigest()


def text_digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _same_generation(a, b) -> bool:
    return (
        a.sample.shape == b.sample.shape
        and a.sample.tobytes() == b.sample.tobytes()
        and a.stats.summary() == b.stats.summary()
    )


class Workload:
    name = ""
    #: (model, total_iterations override) pairs; None keeps Table I.
    models: tuple = ()

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        self.digests: dict = {}
        self.built: dict = {}

    def _iterations(self, override):
        return QUICK_ITERATIONS if self.quick else override

    def _build(self, rec=OFF) -> None:
        for model_name, override in self.models:
            with rec.span(f"build_model.{model_name}", "models"):
                model = build_model(
                    model_name, seed=0,
                    total_iterations=self._iterations(override),
                )
            config = ExionConfig.for_model(model_name)
            with rec.span(f"ExionPipeline.{model_name}", "core"):
                pipeline = ExionPipeline(model, config, compiled=True)
            self.built[model_name] = (model, config, pipeline)

    def _draw(self, count: int) -> tuple:
        """``count`` (request seed, class label) pairs from the run's RNG."""
        seeds = self.rng.integers(0, SEED_BOUND, size=count)
        labels = self.rng.integers(0, 1000, size=count)
        return [int(s) for s in seeds], [int(v) for v in labels]

    def plan_points(self) -> list:
        """(name, spec, config) of every plan the workload executes."""
        return [(n, model.spec, config) for n, (model, config, _) in self.built.items()]

    def plan_digests(self) -> dict:
        cache = get_plan_cache()
        return {
            name: plan_digest(cache.compiled(spec, config=config).plan)
            for name, spec, config in self.plan_points()
        }

    def _check_against_oracle(self, compiled_result, model_name, seed, label):
        """One seed, byte for byte against the interpreted oracle."""
        model, config, _ = self.built[model_name]
        oracle = ExionPipeline(model, config, compiled=False).generate(
            seed=seed, class_label=label
        )
        self.digests[f"{model_name}.seed{seed}"] = sample_digest(compiled_result)
        return _same_generation(compiled_result, oracle)


class SingleStream(Workload):
    name = "single_stream"
    models = (("dit", 50), ("stable_diffusion", None), ("mld", None))

    def prepare(self, rec=OFF) -> None:
        self._build(rec)
        self.check_seeds, self.check_labels = self._draw(len(self.models))

    def first_op(self, rec=OFF) -> str:
        with rec.span("generate.dit", "exec"):
            result = self.built["dit"][2].generate(
                seed=self.check_seeds[0], class_label=self.check_labels[0]
            )
        return sample_digest(result)

    def run(self, ops: int, rec=OFF, clock=NO_CLOCK) -> Outcome:
        out = Outcome()
        seeds, labels = self._draw(ops)
        names = [m for m, _ in self.models]
        per_model = {m: [] for m in names}
        stats = None
        for i in range(ops):
            model_name = names[i % len(names)]
            pipeline = self.built[model_name][2]
            clock.sample()
            with rec.span(f"generate.{model_name}", "exec", op=i):
                start = time.perf_counter()
                result = pipeline.generate(seed=seeds[i], class_label=labels[i])
                elapsed = time.perf_counter() - start
            out.call_s.append(elapsed)
            per_model[model_name].append(elapsed)
            if np.isfinite(result.sample).all():
                out.units += 1
            else:
                out.failed += 1
            if i == 0:
                stats = result.stats.summary()
        out.busy_s = sum(out.call_s)
        out.extra["per_model_s"] = per_model
        out.extra["dit_stats"] = stats
        return out

    def check(self, outcome: Outcome) -> tuple:
        failed = 0
        for (model_name, _), seed, label in zip(
            self.models, self.check_seeds, self.check_labels
        ):
            compiled = self.built[model_name][2].generate(seed=seed, class_label=label)
            if not self._check_against_oracle(compiled, model_name, seed, label):
                failed += 1
        return len(self.models), failed


class Batch8(Workload):
    name = "batch8"
    models = (("dit", 50), ("stable_diffusion", None))
    batch = 8

    def prepare(self, rec=OFF) -> None:
        self._build(rec)
        self.check_seeds, self.check_labels = self._draw(self.batch)

    def first_op(self, rec=OFF) -> str:
        with rec.span("generate_batch.dit", "exec"):
            _, results = self.built["dit"][2].generate_batch(
                self.check_seeds, class_label=self.check_labels[0], batched=True
            )
        return text_digest(*(sample_digest(r) for r in results))

    def run(self, ops: int, rec=OFF, clock=NO_CLOCK) -> Outcome:
        out = Outcome()
        seeds, labels = self._draw(ops * self.batch)
        names = [m for m, _ in self.models]
        for i in range(ops):
            model_name = names[i % len(names)]
            pipeline = self.built[model_name][2]
            chunk = seeds[i * self.batch:(i + 1) * self.batch]
            clock.sample(3)
            with rec.span(f"generate_batch.{model_name}", "exec", op=i):
                start = time.perf_counter()
                samples, results = pipeline.generate_batch(
                    chunk, class_label=labels[i], batched=True
                )
                out.call_s.append(time.perf_counter() - start)
            if len(results) == self.batch and np.isfinite(samples).all():
                out.units += self.batch
            else:
                out.failed += 1
        out.busy_s = sum(out.call_s)
        return out

    def check(self, outcome: Outcome) -> tuple:
        failed = 0
        label = self.check_labels[0]
        for model_name, _ in self.models:
            _, results = self.built[model_name][2].generate_batch(
                self.check_seeds, class_label=label, batched=True
            )
            if not self._check_against_oracle(
                results[0], model_name, self.check_seeds[0], label
            ):
                failed += 1
        return len(self.models), failed


class ServeSaturated(Workload):
    name = "serve_saturated"
    models = (("dit", 50),)
    max_batch = 8
    outstanding = 12
    checked = 8
    ticks_per_sample = 8
    tenant_weights = {"a": 2.0, "b": 1.0}

    def prepare(self, rec=OFF) -> None:
        self._build(rec)
        self.check_seeds, self.check_labels = self._draw(1)

    def make_server(self, rec=OFF):
        with rec.span("ContinuousServer", "serve"):
            return ContinuousServer(
                "dit",
                policy=ContinuousPolicy(max_batch_size=self.max_batch),
                tenant_weights=self.tenant_weights,
                total_iterations=self._iterations(50),
            )

    def first_op(self, rec=OFF) -> str:
        server = self.make_server(rec)
        server.submit(seed=self.check_seeds[0], class_label=self.check_labels[0])
        with rec.span("run_until_drained", "serve"):
            (record,) = server.run_until_drained()
        return sample_digest(record.result)

    def run(self, ops: int, rec=OFF, clock=NO_CLOCK) -> Outcome:
        """Closed loop: ``outstanding`` requests in flight, topped up on
        every completion. The start submits one request per longest plan
        phase until the batch is full, so runs sit at different cursors
        and every dense boundary afterwards sees a leave and a join. No
        deadlines and no aging: the event sequence never reads the clock.
        Latencies are read on ``clock.now()``, which leaves the reference
        samples taken every few ticks out.
        """
        out = Outcome()
        seeds, labels = self._draw(ops)
        tenants = self.rng.choice(sorted(self.tenant_weights), size=ops)
        server = self.make_server(rec)
        stagger = max(1, server.plan.max_phase_length)
        submitted_at: dict = {}
        inputs: dict = {}
        sched_s: list = []
        sent = done = refused = tick = 0
        ramping = True

        def submit() -> None:
            nonlocal sent, refused
            with rec.span("submit", "serve", op=sent):
                rid = server.submit(
                    seed=seeds[sent], class_label=labels[sent],
                    tenant=str(tenants[sent]),
                )
            if rid is None:
                refused += 1
            else:
                submitted_at[rid] = clock.now()
                inputs[rid] = (seeds[sent], labels[sent])
            sent += 1

        loop_start = clock.now()
        while done + refused < ops:
            if tick % self.ticks_per_sample == 0:
                clock.sample()
            if ramping:
                if tick % stagger == 0 and sent < ops:
                    submit()
                ramping = sent < min(self.max_batch, ops)
            else:
                while sent < ops and sent - done < self.outstanding:
                    submit()
            with rec.span("step", "serve"):
                start = time.perf_counter()
                finished = server.step()
                end = time.perf_counter()
            sched_s.append((end - start) - server.last_tick_s)
            tick += 1
            finished_at = clock.now()
            for record in finished:
                out.call_s.append(finished_at - submitted_at[record.request_id])
                done += 1
                if np.isfinite(record.result.sample).all():
                    out.units += 1
                else:
                    out.failed += 1
        out.busy_s = clock.now() - loop_start
        out.failed += refused

        report = server.report()
        joins = [e for e in server.events if e["kind"] == "join"]
        midflight = sum(1 for e in joins if any(c > 0 for c in e["active_cursors"]))
        lookups = report.cache_info["hits"] + report.cache_info["misses"]
        out.exact = {
            "serve.ticks": report.ticks,
            "serve.joins": report.joins,
            "serve.mean_occupancy": report.mean_occupancy,
            "serve.preemptions": report.preemptions,
            "serve.midflight_join_share": midflight / len(joins) if joins else 0.0,
            "serve.threshold_cache_hit_rate": (
                report.cache_info["hits"] / lookups if lookups else 0.0
            ),
        }
        out.extra["sched_s"] = sched_s
        out.extra["wait_s"] = [
            server.results[rid].wait_s for rid in sorted(server.results)
        ]
        out.extra["first"] = [
            (inputs[rid], sample_digest(server.results[rid].result))
            for rid in sorted(inputs)[: self.checked]
        ]
        out.extra["server"] = server
        return out

    def check(self, outcome: Outcome) -> tuple:
        """Each of the first results against a solo run of the same seed."""
        failed = 0
        pipeline = self.built["dit"][2]
        for (seed, label), digest in outcome.extra["first"]:
            solo = sample_digest(pipeline.generate(seed=seed, class_label=label))
            self.digests[f"dit.seed{seed}"] = digest
            if solo != digest:
                failed += 1
        return len(outcome.extra["first"]), failed


class FleetSim(Workload):
    name = "fleet_sim"
    mix = ("dit", "mld", "stable_diffusion")
    replicas = 4
    deadline_s = 3.0

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.cell_requests = QUICK_CELL_REQUESTS if quick else CELL_REQUESTS
        self.cell_seeds: list = []

    def prepare(self, rec=OFF) -> None:
        pass

    def _cell_seed(self, index: int) -> int:
        while len(self.cell_seeds) <= index:
            self.cell_seeds.append(int(self.rng.integers(0, SEED_BOUND)))
        return self.cell_seeds[index]

    def trace(self, index: int, rec=OFF):
        with rec.span("synthesize_trace", "cluster"):
            return synthesize_trace(
                MMPPProcess(15.0, 60.0, mean_dwell_s=2.0),
                self.cell_requests,
                WorkloadMix(self.mix),
                rng=self._cell_seed(index),
                deadline_s=self.deadline_s,
            )

    def simulate(self, trace, rec=OFF, observer=None, continuous=True):
        with rec.span("build_replicas", "cluster"):
            fleet = build_replicas(
                self.replicas, accelerator="exion24", continuous=continuous
            )
        with rec.span("simulate_cluster", "cluster"):
            return simulate_cluster(
                trace, fleet, make_router("jsq"),
                slo=SLOPolicy(latency_target_s=self.deadline_s),
                observer=observer,
            )

    def cell(self, index: int, rec=OFF) -> dict:
        """One cell: simulate, analyse, encode and render. All dry-run."""
        observer = Observer()
        report = self.simulate(self.trace(index, rec), rec, observer)
        with rec.span("analyze_tracer", "obs.analyze"):
            analysis = analyze_tracer(observer.tracer)
        with rec.span("ClusterReport.to_json", "cluster"):
            report_json = report.to_json()
        with rec.span("AnalysisReport.to_json", "obs.analyze"):
            analysis_json = analysis.to_json()
        with rec.span("render_html", "obs.analyze"):
            html = render_html(analysis)
        return {
            "report": report, "report_json": report_json,
            "analysis_json": analysis_json, "html_bytes": len(html),
            "residual_ns": analysis.attribution.max_request_residual_ns(),
            "spans": len(observer.tracer.spans), "observer": observer,
        }

    def first_op(self, rec=OFF) -> str:
        with rec.span("cell", "other", op=0):
            cell = self.cell(0, rec)
        return text_digest(cell["report_json"], cell["analysis_json"])

    def run(self, ops: int, rec=OFF, clock=NO_CLOCK) -> Outcome:
        out = Outcome()
        for index in range(ops):
            clock.sample(3)
            with rec.span("cell", "other", op=index):
                start = time.perf_counter()
                cell = self.cell(index, rec)
                out.call_s.append(time.perf_counter() - start)
            report = cell["report"]
            disposed = report.served + report.dropped
            if disposed == self.cell_requests and cell["residual_ns"] == 0:
                out.units += self.cell_requests
            else:
                out.failed += 1
            if index == 0:
                # Drops are simulated outcomes, not failures.
                out.exact = {
                    "cluster.served": report.served,
                    "cluster.drops": report.dropped,
                    "cluster.mean_utilization": report.mean_utilization,
                    "cluster.report_digest": int(
                        text_digest(cell["report_json"])[:12], 16
                    ),
                    "obs.spans": cell["spans"],
                    "obs.analyze.max_residual_ns": cell["residual_ns"],
                }
                out.extra["cell0"] = cell
        out.busy_s = sum(out.call_s)
        return out

    def check(self, outcome: Outcome) -> tuple:
        """Cell 0 again: identical report and analysis JSON, zero residual."""
        first = outcome.extra["cell0"]
        again = self.cell(0)
        self.digests["cell0.report"] = text_digest(first["report_json"])
        self.digests["cell0.analysis"] = text_digest(first["analysis_json"])
        same = (
            again["report_json"] == first["report_json"]
            and again["analysis_json"] == first["analysis_json"]
            and again["residual_ns"] == 0
        )
        return 1, 0 if same else 1

    def plan_points(self) -> list:
        # The schedules the dry-run replicas tick through (Table I specs).
        return [
            (m, build_model(m, seed=0).spec, ExionConfig.for_model(m))
            for m in self.mix
        ]


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (SingleStream, Batch8, ServeSaturated, FleetSim)
}
