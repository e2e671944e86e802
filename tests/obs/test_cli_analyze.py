"""CLI coverage for ``repro obs analyze|report|diff``."""

import json
import math

import pytest

from repro.cli import build_parser, main
from repro.obs.analyze import TraceRecords, diff_analyses

SCENARIO = ["--continuous", "--iterations", "12", "--requests", "8"]


class TestParser:
    def test_analyze_defaults(self):
        args = build_parser().parse_args(["obs", "analyze"])
        assert args.obs_command == "analyze"
        assert args.input is None
        assert args.out == "analysis.json"
        assert args.html is None
        assert not args.cold_start

    def test_diff_args(self):
        args = build_parser().parse_args(
            ["obs", "diff", "a.json", "b.json", "--tolerance", "0.1"]
        )
        assert args.base == "a.json"
        assert args.current == "b.json"
        assert args.tolerance == 0.1

    def test_slo_flags_accumulate(self):
        args = build_parser().parse_args(
            ["obs", "analyze", "--slo", "a:deadline:0.9",
             "--slo", "b:latency:0.25:0.95"]
        )
        assert args.slo == ["a:deadline:0.9", "b:latency:0.25:0.95"]


class TestAnalyze:
    def test_scenario_analysis_is_byte_deterministic(self, capsys, tmp_path):
        a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
        h1, h2 = tmp_path / "r1.html", tmp_path / "r2.html"
        argv = ["obs", "analyze"] + SCENARIO
        assert main(argv + ["--out", str(a1), "--html", str(h1)]) == 0
        assert main(argv + ["--out", str(a2), "--html", str(h2)]) == 0
        capsys.readouterr()
        assert a1.read_bytes() == a2.read_bytes()
        assert h1.read_bytes() == h2.read_bytes()

        doc = json.loads(a1.read_text())
        assert doc["mode"] == "continuous"
        assert doc["conservation"]["max_request_residual_ns"] == 0
        assert doc["conservation"]["tenant_residual_ns"] == 0
        assert doc["requests"]
        html = h1.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<script" not in html

    def test_artifact_input_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        out = tmp_path / "analysis.json"
        assert main(["obs", "analyze"] + SCENARIO
                    + ["--out", str(tmp_path / "direct.json"),
                       "--trace-out", str(trace)]) == 0
        assert main(["obs", "analyze", "--input", str(trace),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["mode"] == "continuous"
        assert len(doc["requests"]) == 8

    def test_custom_slo_flag(self, capsys, tmp_path):
        out = tmp_path / "a.json"
        assert main(["obs", "analyze"] + SCENARIO
                    + ["--slo", "tight:latency:0.001:0.95",
                       "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert set(doc["slo"]) == {"tight"}
        assert doc["slo"]["tight"]["bad"] > 0

    def test_trace_out_appends_alert_instants(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["obs", "analyze"] + SCENARIO
                    + ["--out", str(tmp_path / "a.json"),
                       "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        alerts = [e for e in doc["traceEvents"]
                  if e.get("name") == "slo_alert"]
        assert alerts
        assert all("slo" in e["args"] for e in alerts)


class TestBadInput:
    """An artifact that is neither a Chrome trace nor span/event rows
    fails with the path and line, never a traceback or an empty
    analysis."""

    @pytest.mark.parametrize("text, line", [
        ('{"type": "event", "event_id": 0, "name": "submit", '
         '"track": "t", "ts_s": 0.0}\n[1,2]\n', 2),  # a row that is a list
        ("not json at all\n", 1),
        ('{"a": 1}\n', 1),  # JSON, but not a trace
    ], ids=["list-row", "non-json", "untyped-object"])
    def test_load_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.jsonl: .*line {line} "):
            TraceRecords.load(str(path))

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("text", ["[1,2]\n", "not json\n", '{"a": 1}'],
                             ids=["list-row", "non-json", "untyped-object"])
    def test_cli_exits_with_bad_input(self, tmp_path, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=r"^bad --input: .*bad\.json: "):
            main(["obs", command, "--input", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("span_id", [1.5, "0", -1, 2**63, True],
                             ids=["float", "str", "negative", "2**63", "bool"])
    @pytest.mark.parametrize("artifact", ["jsonl", "chrome"])
    def test_a_bad_id_is_bad_input(self, tmp_path, artifact, span_id):
        if artifact == "jsonl":
            text = json.dumps({
                "type": "span", "span_id": span_id, "name": "tick",
                "track": "t", "start_s": 0.0, "end_s": 1.0,
                "parent_id": None, "args": {},
            }) + "\n"
        else:
            text = json.dumps({"traceEvents": [{
                "name": "tick", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
                "dur": 1.0, "args": {"span_id": span_id},
            }]})
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match=r"^bad --input: .*bad\.json: "
                           r"'tick': span_id .* is not an int in"):
            main(["obs", "analyze", "--input", str(path),
                  "--out", str(tmp_path / "out")])

    def test_empty_file_is_an_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        assert len(TraceRecords.load(str(path)).spans) == 0
        out = tmp_path / "a.json"
        assert main(["obs", "analyze", "--input", str(path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["requests"] == []


class TestReport:
    def test_report_renders_standalone_html(self, capsys, tmp_path):
        out = tmp_path / "report.html"
        assert main(["obs", "report"] + SCENARIO
                    + ["--out", str(out), "--title", "demo run"]) == 0
        capsys.readouterr()
        html = out.read_text()
        assert "demo run" in html
        for needle in ("Critical path", "Tenant", "slo", "svg"):
            assert needle.lower() in html.lower()


class TestDiff:
    def _analysis(self, tmp_path, name, requests="8"):
        out = tmp_path / name
        argv = ["obs", "analyze", "--continuous", "--iterations", "12",
                "--requests", requests, "--out", str(out)]
        assert main(argv) == 0
        return out

    def test_identical_runs_diff_clean(self, capsys, tmp_path):
        a = self._analysis(tmp_path, "a.json")
        b = self._analysis(tmp_path, "b.json")
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_changed_run_reports_and_exits_nonzero(self, capsys, tmp_path):
        a = self._analysis(tmp_path, "a.json", requests="4")
        b = self._analysis(tmp_path, "b.json", requests="8")
        code = main(["obs", "diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert code == 1
        assert "regressions" in out

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_a_negative_or_non_finite_tolerance_is_refused(self, tolerance):
        # -1 would count an improvement as a regression; nan and inf
        # would pass every regression.
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            diff_analyses({}, {}, tolerance=tolerance)
