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
bench that silently disappears fails CI). Identical result sets always
compare clean: every rule is a pure function of the two documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.report import format_table

_EPS = 1e-12


@dataclass(frozen=True)
class Finding:
    """One comparison outcome for a single metric or bench."""

    bench: str
    kind: str  # "metric" | "coverage"
    name: str
    baseline: Optional[float]
    current: Optional[float]
    delta_rel: Optional[float]
    message: str


@dataclass
class CompareReport:
    """All findings of one baseline-vs-current comparison."""

    regressions: list = field(default_factory=list)
    improvements: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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
        return
    unit = f" {old['unit']}" if old.get("unit") else ""
    finding = Finding(
        bench=bench, kind="metric", name=name,
        baseline=old_value, current=new_value, delta_rel=rel,
        message=(
            f"{bench}:{name} {old_value:.6g} -> {new_value:.6g}{unit} "
            f"({rel:+.1%}, {direction}, tol {tolerance:.0%})"
        ),
    )
    (report.regressions if regressed else report.improvements).append(finding)


def compare_results(baseline: dict, current: dict,
                    strict: bool = False) -> CompareReport:
    """Compare two ``{name: result_dict}`` sets; baseline defines the gate."""
    report = CompareReport()
    for bench, old in sorted(baseline.items()):
        new = current.get(bench)
        if new is None:
            finding = Finding(
                bench=bench, kind="coverage", name="bench",
                baseline=None, current=None, delta_rel=None,
                message=f"{bench}: present in baseline, missing from current",
            )
            (report.regressions if strict else report.notes).append(finding)
            continue
        for metric_name, old_metric in sorted(old.get("metrics", {}).items()):
            new_metric = new.get("metrics", {}).get(metric_name)
            if new_metric is None:
                finding = Finding(
                    bench=bench, kind="coverage", name=metric_name,
                    baseline=float(old_metric["value"]), current=None,
                    delta_rel=None,
                    message=(f"{bench}:{metric_name} missing from "
                             f"current result"),
                )
                (report.regressions if strict else report.notes).append(finding)
                continue
            _compare_metric(bench, metric_name, old_metric, new_metric, report)
    for bench in sorted(set(current) - set(baseline)):
        report.notes.append(Finding(
            bench=bench, kind="coverage", name="bench",
            baseline=None, current=None, delta_rel=None,
            message=f"{bench}: new bench, absent from baseline",
        ))
    return report


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
        lines.extend(f"  - {finding.message}" for finding in findings)
    if not lines:
        lines.append("no differences beyond tolerances")
    counts = [["regressions", len(report.regressions)],
              ["improvements", len(report.improvements)],
              ["notes", len(report.notes)]]
    lines.append("")
    lines.append(format_table(["severity", "count"], counts,
                              title="bench_compare summary"))
    return "\n".join(lines)


__all__ = [
    "CompareReport",
    "Finding",
    "compare_results",
    "format_report",
    "load_results",
]
