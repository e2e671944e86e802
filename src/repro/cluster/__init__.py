"""Trace-driven multi-accelerator fleet simulation.

The paper evaluates distinct deployment points (EXION4 edge, EXION24
server, EXION42 — Table II); this package scales the reproduction from
one synchronous :class:`~repro.serve.continuous.ContinuousServer` to a
*fleet* of them, fed by open-loop traffic and measured on the axes a
serving operator cares about — tail latency, queue wait, utilization,
drops:

- :mod:`repro.cluster.traffic` — arrival processes (Poisson, bursty
  MMPP, diurnal ramp, replayable trace files) and workload mixes over
  the model zoo;
- :mod:`repro.cluster.replica` — an accelerator-backed replica whose
  batching comes from the real serving layer and whose service times
  come from the :class:`~repro.hw.accelerator.ExionAccelerator` latency
  model (no wall clock anywhere);
- :mod:`repro.cluster.router` — round-robin, join-shortest-queue and
  cache-affinity routing policies;
- :mod:`repro.cluster.slo` — latency targets, timeouts, admission
  control, deterministic percentile accounting;
- :mod:`repro.cluster.simulator` — the discrete-event loop;
- :mod:`repro.cluster.report` — :class:`ClusterReport`, canonical
  (byte-stable) JSON, and the projection onto the ``repro.bench`` schema.

Quickstart::

    from repro.cluster import (
        PoissonProcess, SLOPolicy, build_replicas, make_router,
        simulate_cluster, synthesize_trace,
    )

    trace = synthesize_trace(PoissonProcess(rate_rps=200.0), 64, rng=0)
    report = simulate_cluster(
        trace,
        replicas=build_replicas(4, accelerator="exion24"),
        router=make_router("jsq"),
        slo=SLOPolicy(latency_target_s=0.5),
    )
    print(report.render())

Everything is deterministic per seed: the same trace and fleet produce
byte-identical :meth:`ClusterReport.to_json` documents. See
``benchmarks/bench_cluster_scaling.py`` for the replica-scaling bench
and ``python -m repro cluster`` for the CLI.
"""

from repro.cluster.replica import (
    ACCELERATORS,
    Dispatch,
    DroppedRequest,
    Replica,
    ServiceTimeModel,
    SimClock,
    make_accelerator,
)
from repro.cluster.report import ClusterReport
from repro.cluster.router import (
    ROUTERS,
    CacheAffinityRouter,
    JoinShortestQueueRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.cluster.simulator import (
    ClusterSimulator,
    build_replicas,
    simulate_cluster,
)
from repro.cluster.slo import LatencyAccumulator, SLOPolicy, percentile
from repro.cluster.traffic import (
    ArrivalProcess,
    ClusterRequest,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    WorkloadMix,
    load_trace,
    save_trace,
    synthesize_trace,
)

__all__ = [
    "ACCELERATORS",
    "ArrivalProcess",
    "CacheAffinityRouter",
    "ClusterReport",
    "ClusterRequest",
    "ClusterSimulator",
    "Dispatch",
    "DiurnalProcess",
    "DroppedRequest",
    "JoinShortestQueueRouter",
    "LatencyAccumulator",
    "MMPPProcess",
    "PoissonProcess",
    "ROUTERS",
    "Replica",
    "RoundRobinRouter",
    "Router",
    "SLOPolicy",
    "ServiceTimeModel",
    "SimClock",
    "WorkloadMix",
    "build_replicas",
    "load_trace",
    "make_accelerator",
    "make_router",
    "percentile",
    "save_trace",
    "simulate_cluster",
    "synthesize_trace",
]
