"""Diff two bench result sets and flag regressions.

The comparator is the repo's value gate: given a *baseline* result set
(normally the committed ``benchmarks/baseline/BENCH_repro.json``) and a
*current* one (a fresh ``python -m repro bench --run all``), it checks
every baseline metric against its own contract — ``direction`` says
which way is worse, ``tolerance`` how far relative drift may go (a
*value* tolerance for cross-machine float drift). It has no timing
rule: host time is ``perfbench``'s to measure.

Benches or metrics missing from the current set are notes by default
and regressions under ``strict`` (``make bench-compare`` passes it, so a
bench that silently disappears fails CI); so is a metric whose ``paper``
reference changed, since deleting a reference drops a prediction.
Identical result sets always compare clean: every rule is a pure
function of the two documents.

:func:`paper_summary` condenses one result set's predictions, the
metrics that carry a ``paper`` reference, into a count, their median
relative deviation from the paper and how many are off by more than
30 %.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import format_table

_EPS = 1e-12


@dataclass
class CompareReport:
    """All findings of one baseline-vs-current comparison, each a
    one-line message naming its bench and metric, and a count of values
    that moved within tolerance (passing is not byte identity)."""

    regressions: list = field(default_factory=list)
    improvements: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    within_tolerance: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _results_of(document: dict) -> dict:
    """Accept an aggregate document or a single bench result."""
    if "results" in document:
        return dict(document["results"])
    if "name" in document:
        return {document["name"]: document}
    raise ValueError("document is neither an aggregate nor a bench result")


def load_results(path) -> dict:
    """Load ``{bench_name: result_dict}`` from a file or directory.

    A directory is read through its ``BENCH_repro.json`` aggregate when
    present, else by merging every ``BENCH_*.json`` inside.
    """
    import json

    path = Path(path)
    if path.is_dir():
        aggregate = path / "BENCH_repro.json"
        if aggregate.is_file():
            return _results_of(json.loads(aggregate.read_text()))
        merged: dict = {}
        for file in sorted(path.glob("BENCH_*.json")):
            merged.update(_results_of(json.loads(file.read_text())))
        if not merged:
            raise FileNotFoundError(f"no BENCH_*.json files under {path}")
        return merged
    return _results_of(json.loads(path.read_text()))


def _rel_delta(old: float, new: float) -> float:
    return (new - old) / max(abs(old), _EPS)


def _compare_metric(bench: str, name: str, old: dict, new: dict,
                    report: CompareReport) -> None:
    old_value = float(old["value"])
    new_value = float(new["value"])
    tolerance = float(old.get("tolerance", 0.05))
    direction = old.get("direction", "two_sided")
    rel = _rel_delta(old_value, new_value)

    if direction == "lower_better":
        regressed = rel > tolerance
        improved = rel < -tolerance
    elif direction == "higher_better":
        regressed = rel < -tolerance
        improved = rel > tolerance
    else:  # two_sided
        regressed = abs(rel) > tolerance
        improved = False

    if not regressed and not improved:
        report.within_tolerance += new_value != old_value
        return
    unit = f" {old['unit']}" if old.get("unit") else ""
    (report.regressions if regressed else report.improvements).append(
        f"{bench}:{name} {old_value:.6g} -> {new_value:.6g}{unit} "
        f"({rel:+.1%}, {direction}, tol {tolerance:.0%})"
    )


def compare_results(baseline: dict, current: dict,
                    strict: bool = False) -> CompareReport:
    """Compare two ``{name: result_dict}`` sets; baseline defines the gate."""
    report = CompareReport()
    missing = report.regressions if strict else report.notes
    for bench, old in sorted(baseline.items()):
        new = current.get(bench)
        if new is None:
            missing.append(f"{bench}: present in baseline, missing from current")
            continue
        for metric_name, old_metric in sorted(old.get("metrics", {}).items()):
            new_metric = new.get("metrics", {}).get(metric_name)
            if new_metric is None:
                missing.append(f"{bench}:{metric_name} missing from current result")
                continue
            old_paper, new_paper = old_metric.get("paper"), new_metric.get("paper")
            if old_paper != new_paper:
                missing.append(f"{bench}:{metric_name} paper reference "
                               f"{old_paper} -> {new_paper}")
            _compare_metric(bench, metric_name, old_metric, new_metric, report)
    for bench in sorted(set(current) - set(baseline)):
        report.notes.append(f"{bench}: new bench, absent from baseline")
    return report


def paper_summary(results: dict) -> dict:
    """Count a result set's predictions and how far they land.

    A metric carries ``paper`` only when it predicts that number, so the
    summary reads every referenced metric of ``{name: result_dict}``:
    ``predictions`` (the count), ``median_deviation`` (the median
    ``|value - paper| / |paper|``, 0 when there is none) and
    ``above_30pct`` (how many deviate by more than 30 %).
    """
    deviations = [
        abs(_rel_delta(metric["paper"], metric["value"]))
        for result in results.values()
        for metric in result.get("metrics", {}).values()
        if metric.get("paper") is not None
    ]
    return {
        "predictions": len(deviations),
        "median_deviation": (statistics.median(deviations)
                             if deviations else 0.0),
        "above_30pct": sum(d > 0.30 for d in deviations),
    }


def format_report(report: CompareReport) -> str:
    """Human summary of a comparison, one section per severity."""
    lines = []
    sections = (
        ("REGRESSIONS", report.regressions),
        ("improvements", report.improvements),
        ("notes", report.notes),
    )
    for label, findings in sections:
        if not findings:
            continue
        lines.append(f"{label} ({len(findings)}):")
        lines.extend(f"  - {finding}" for finding in findings)
    if not lines:
        lines.append("no differences beyond tolerances")
    counts = [["regressions", len(report.regressions)],
              ["improvements", len(report.improvements)],
              ["notes", len(report.notes)],
              ["changed within tolerance", report.within_tolerance]]
    lines.append("")
    lines.append(format_table(["severity", "count"], counts,
                              title="bench_compare summary"))
    return "\n".join(lines)


__all__ = [
    "CompareReport",
    "compare_results",
    "format_report",
    "load_results",
    "paper_summary",
]
