"""NaN and infinities are refused at the cluster and serve boundary.

Range checks such as ``x <= 0`` are false for NaN, so each constructor
first asks that every float argument be finite and names the one that is
not; ``None`` stays the way to say "no limit".
"""

import pytest

from repro.cluster import (
    ClusterRequest,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    SLOPolicy,
    synthesize_trace,
)
from repro.serve import ContinuousPolicy, FairQueue

BAD = (float("nan"), float("inf"), float("-inf"))


def _refused(build, name: str) -> None:
    for bad in BAD:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build(bad)


@pytest.mark.parametrize("name", [
    "latency_target_s", "timeout_s", "max_queue_depth",
])
def test_slo_policy(name):
    _refused(lambda bad: SLOPolicy(**{name: bad}), name)
    assert SLOPolicy(**{name: None}) == SLOPolicy()


@pytest.mark.parametrize("name", ["rate_rps"])
def test_poisson_process(name):
    _refused(lambda bad: PoissonProcess(**{name: bad}), name)


@pytest.mark.parametrize("name", [
    "rate_low_rps", "rate_high_rps", "mean_dwell_s",
])
def test_mmpp_process(name):
    good = {"rate_low_rps": 1.0, "rate_high_rps": 2.0, "mean_dwell_s": 1.0}
    _refused(lambda bad: MMPPProcess(**{**good, name: bad}), name)


@pytest.mark.parametrize("name", ["base_rate_rps", "peak_rate_rps", "period_s"])
def test_diurnal_process(name):
    good = {"base_rate_rps": 1.0, "peak_rate_rps": 2.0, "period_s": 60.0}
    _refused(lambda bad: DiurnalProcess(**{**good, name: bad}), name)


@pytest.mark.parametrize("name", ["arrival_s", "deadline_s"])
def test_cluster_request(name):
    good = {"arrival_s": 1.0, "model": "dit", "deadline_s": 2.0}
    _refused(lambda bad: ClusterRequest(**{**good, name: bad}), name)


@pytest.mark.parametrize("name", ["deadline_s"])
def test_synthesize_trace(name):
    _refused(lambda bad: synthesize_trace(PoissonProcess(1.0), 3, **{name: bad}),
             name)
    assert all(r.deadline_s is None
               for r in synthesize_trace(PoissonProcess(1.0), 3, deadline_s=None))


@pytest.mark.parametrize("name", [
    "max_batch_size", "quantum", "aging_s", "timeout_s", "min_service_s",
    "max_wait_s",
])
def test_continuous_policy(name):
    _refused(lambda bad: ContinuousPolicy(**{name: bad}), name)


@pytest.mark.parametrize("tenant", ["alice", "bob"])
def test_tenant_weights(tenant):
    weights = {"alice": 2.0, "bob": 1.0}
    _refused(lambda bad: FairQueue({**weights, tenant: bad}),
             f"tenant {tenant!r} weight")
