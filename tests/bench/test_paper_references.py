"""A ``paper=`` reference marks a prediction; an echo carries none.

A metric computed from a number the model takes from the paper (a
Table I target, a Fig. 4 share, a Table II or III constant) repeats that
number: it is an *echo* and carries no reference, so
:func:`repro.bench.compare.paper_summary` counts predictions only.
``ECHOES`` is the one list of them. Each echo is checked, not asserted:
scaling its source must move it by the factor its formula gives, and
scaling a prediction's reference must leave the prediction alone.
"""

import importlib
import sys
from dataclasses import dataclass, replace

import pytest

from repro.baselines.cambricon_d import CambriconDModel
from repro.bench import BenchContext, discover
from repro.hw.constants import HARDWARE
from repro.program.cache import fresh_plan_cache
from repro.workloads.specs import BENCHMARK_ORDER, MODEL_SPECS


def _rebind(monkeypatch, module, name, value):
    """Patch ``module.name`` and every ``from module import name`` copy."""
    old = getattr(importlib.import_module(module), name)
    for loaded in list(sys.modules.values()):
        if (loaded.__name__.partition(".")[0] in ("repro", "benchmarks")
                and getattr(loaded, name, None) is old):
            monkeypatch.setattr(loaded, name, value)


@dataclass(frozen=True)
class SpecField:
    """A field of one model's ``ModelSpec``."""

    model: str
    field: str

    def value(self):
        return getattr(MODEL_SPECS[self.model], self.field)

    def scale(self, monkeypatch, factor):
        spec = MODEL_SPECS[self.model]
        monkeypatch.setitem(MODEL_SPECS, self.model, replace(
            spec, **{self.field: self.value() * factor}))


@dataclass(frozen=True)
class Constant:
    """One field of a frozen record constant."""

    module: str
    name: str
    field: str

    def record(self):
        return getattr(importlib.import_module(self.module), self.name)

    def value(self):
        return getattr(self.record(), self.field)

    def scale(self, monkeypatch, factor):
        _rebind(monkeypatch, self.module, self.name, replace(
            self.record(), **{self.field: self.value() * factor}))


@dataclass(frozen=True)
class ClassAttribute:
    """A class-level constant of a model."""

    owner: type
    name: str

    def value(self):
        return getattr(self.owner, self.name)

    def scale(self, monkeypatch, factor):
        monkeypatch.setattr(self.owner, self.name, self.value() * factor)


@dataclass(frozen=True)
class TableIII(Constant):
    """Entries of a Table III ``(component, value)`` field of the hardware
    record. The totals are properties of the record, so they follow."""

    keys: tuple

    def value(self):
        table = dict(super().value())
        return sum(table[key] for key in self.keys)

    def scale(self, monkeypatch, factor):
        pairs = tuple((key, value * factor if key in self.keys else value)
                      for key, value in super().value())
        _rebind(monkeypatch, self.module, self.name,
                replace(self.record(), **{self.field: pairs}))


#: The hardware record every Table II and III echo reads.
RECORD = ("repro.hw.constants", "HARDWARE")


def proportional(factor, before):
    """A copy, sum or multiple of the source moves by its factor."""
    return factor


def share(factor, before):
    """A part over a total that holds it: s -> f s / (1 + (f - 1) s)."""
    return factor / (1 + (factor - 1) * before)


#: echo metric -> (source, how the metric follows the source).
ECHOES = {
    **{f"fig04_opcount.{m}.transformer_share":
       (SpecField(m, "paper_transformer_share"), proportional)
       for m in BENCHMARK_ORDER},
    **{f"fig06_ffn_reuse.{m}.ffn_output_sparsity":
       (SpecField(m, "target_inter_sparsity"), proportional)
       for m in BENCHMARK_ORDER},
    # DiT is all transformer, so Cambricon-D's DiT speedup is the constant.
    "fig19b_sota.dit.cambricon_d_speedup":
        (ClassAttribute(CambriconDModel, "transformer_speedup"),
         proportional),
    "table2_specs.dsc_peak_tops":
        (Constant(*RECORD, "dsc_peak_tops"), proportional),
    "table2_specs.exion4.peak_tops":
        (Constant(*RECORD, "dsc_peak_tops"), proportional),
    "table2_specs.exion24.peak_tops":
        (Constant(*RECORD, "dsc_peak_tops"), proportional),
    "table2_specs.exion4.bandwidth_gbps":
        (Constant("repro.hw.dram", "LPDDR5", "bandwidth_gbps"), proportional),
    "table2_specs.exion24.bandwidth_gbps":
        (Constant("repro.hw.dram", "GDDR6", "bandwidth_gbps"), proportional),
    "table3_power_area.total_dsc_area_mm2":
        (TableIII(*RECORD, "dsc_area_mm2", tuple(dict(HARDWARE.dsc_area_mm2))),
         proportional),
    "table3_power_area.total_dsc_power_mw":
        (TableIII(*RECORD, "dsc_power_mw", tuple(dict(HARDWARE.dsc_power_mw))),
         proportional),
    "table3_power_area.sparsity_units_power_share":
        (TableIII(*RECORD, "dsc_power_mw", ("epre", "cau")), share),
    "table3_power_area.cau_area_share":
        (TableIII(*RECORD, "dsc_area_mm2", ("cau",)), share),
}

SOURCES = sorted({source for source, _ in ECHOES.values()}, key=repr)


def factor_for(value):
    """x1.1, or x0.9 for a fraction that x1.1 would push past 1."""
    return 0.9 if value <= 1 < 1.1 * value else 1.1


def run(benches):
    """``{bench.metric: Metric}`` of fresh runs, sharing no cached state."""
    registry = discover()
    ctx = BenchContext()
    metrics = {}
    with fresh_plan_cache():
        for bench in sorted(benches):
            result = registry.get(bench).builder(ctx)
            metrics.update({f"{bench}.{name}": metric
                            for name, metric in result.metrics.items()})
    return metrics


@pytest.fixture(scope="module")
def unscaled():
    return run({metric.partition(".")[0] for metric in ECHOES})


def test_every_echo_is_measured_and_carries_no_reference(unscaled):
    assert set(ECHOES) <= set(unscaled)
    referenced = {name for name, metric in unscaled.items()
                  if metric.paper is not None}
    assert referenced, "the echo benches still make predictions"
    assert referenced.isdisjoint(ECHOES)


@pytest.mark.parametrize("source", SOURCES, ids=repr)
def test_an_echo_moves_with_its_source(source, unscaled, monkeypatch):
    echoes = {metric: follows for metric, (src, follows) in ECHOES.items()
              if src == source}
    factor = factor_for(source.value())
    source.scale(monkeypatch, factor)
    scaled = run({metric.partition(".")[0] for metric in echoes})
    for metric, follows in echoes.items():
        before = unscaled[metric].value
        assert scaled[metric].value / before == pytest.approx(
            follows(factor, before), rel=0.01), metric


@pytest.mark.parametrize("bench, field, prediction", [
    ("fig04_opcount", "paper_total_ops", "total_ops"),
    ("fig06_ffn_reuse", "paper_ffn_ops_reduction", "ffn_ops_reduction"),
])
def test_a_prediction_ignores_its_reference(bench, field, prediction,
                                            unscaled, monkeypatch):
    for model in BENCHMARK_ORDER:
        source = SpecField(model, field)
        source.scale(monkeypatch, factor_for(source.value()))
    scaled = run({bench})
    for model in BENCHMARK_ORDER:
        name = f"{bench}.{model}.{prediction}"
        assert scaled[name].paper == getattr(MODEL_SPECS[model], field)
        assert scaled[name].paper != unscaled[name].paper
        assert scaled[name].value == unscaled[name].value, name
