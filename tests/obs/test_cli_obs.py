"""CLI coverage for observability: trace subcommand, serve/cluster flags."""

import json

from repro.cli import _run_scenario, build_parser, main
from repro.obs import validate_chrome_trace


class TestParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.model == "dit"
        assert args.accelerator == "exion24"
        assert args.out == "trace.json"
        assert not args.continuous
        assert args.metrics_out is None

    def test_serve_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--simulate", "exion24", "--json", "r.json",
             "--metrics-out", "m.prom", "--trace-out", "t.json"]
        )
        assert args.simulate == "exion24"
        assert args.json == "r.json"
        assert args.metrics_out == "m.prom"
        assert args.trace_out == "t.json"

    def test_cluster_obs_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--metrics-out", "m.json", "--trace-out", "t.json"]
        )
        assert args.metrics_out == "m.json"
        assert args.trace_out == "t.json"


class TestTraceCommand:
    def test_emits_schema_valid_deterministic_trace(self, capsys, tmp_path):
        argv = ["trace", "--model", "dit", "--continuous",
                "--iterations", "12", "--seed", "0"]
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        m1 = tmp_path / "m1.json"
        e1 = tmp_path / "e1.jsonl"
        assert main(argv + ["--out", str(t1), "--metrics-out", str(m1),
                            "--events-out", str(e1)]) == 0
        assert main(argv + ["--out", str(t2)]) == 0
        capsys.readouterr()

        assert t1.read_bytes() == t2.read_bytes()
        doc = json.loads(t1.read_text())
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        tracks = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert {"serve/batch", "serve/membership", "hw/timeline"} <= tracks
        metrics = json.loads(m1.read_text())
        names = [f["name"] for f in metrics["families"]]
        assert names == sorted(names)
        assert "repro_membership_events_total" in names
        for line in e1.read_text().splitlines():
            json.loads(line)

    def test_metrics_out_is_the_json_snapshot_whatever_the_name(
        self, capsys, tmp_path
    ):
        argv = ["trace", "--model", "dit", "--iterations", "8",
                "--requests", "4"]
        out = tmp_path / "m.prom"
        assert main(argv + ["--out", str(tmp_path / "t.json"),
                            "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        observer, _ = _run_scenario(build_parser().parse_args(argv))
        assert out.read_text() == observer.metrics.to_json()

    def test_drain_mode_trace(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["trace", "--model", "dit", "--iterations", "8",
                     "--requests", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) > 0
        assert any(e.get("name") == "batch" for e in doc["traceEvents"])


class TestServeJson:
    def test_continuous_json_deterministic_across_runs(
        self, capsys, tmp_path
    ):
        argv = ["serve", "--model", "dit", "--continuous", "--requests",
                "4", "--batch-size", "2", "--iterations", "6",
                "--simulate", "exion24"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        t1, t2 = tmp_path / "ta.json", tmp_path / "tb.json"
        assert main(argv + ["--json", str(p1), "--trace-out", str(t1)]) == 0
        assert main(argv + ["--json", str(p2), "--trace-out", str(t2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

        doc = json.loads(p1.read_text())
        assert doc["continuous"] is True
        assert doc["simulate"] == "exion24"
        assert doc["summary"]["timing_source"] == "simulated"
        assert doc["summary"]["ticks"] > 0
        assert len(doc["requests"]) == 4
        row = doc["requests"][0]
        assert {"request_id", "seed", "tenant", "priority", "batch_size",
                "wait_s", "service_s"} <= set(row)
        validate_chrome_trace(json.loads(t1.read_text()))

    def test_drain_json_deterministic_across_runs(self, capsys, tmp_path):
        argv = ["serve", "--model", "dit", "--requests", "4",
                "--batch-size", "2", "--iterations", "6",
                "--simulate", "exion24"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--json", str(p1)]) == 0
        assert main(argv + ["--json", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["summary"]["batches_served"] == 2
        assert doc["summary"]["cache_model_misses"] == 1

    def test_metrics_out(self, capsys, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main(
            ["serve", "--model", "dit", "--requests", "2", "--batch-size",
             "2", "--iterations", "6", "--simulate", "exion24",
             "--metrics-out", str(out)]
        ) == 0
        capsys.readouterr()
        families = {
            f["name"]: f for f in json.loads(out.read_text())["families"]
        }
        batches = families["repro_batches_total"]
        assert batches["kind"] == "counter"
        assert [s["value"] for s in batches["series"]] == [1.0]


class TestClusterObs:
    def test_continuous_json_deterministic_across_runs(
        self, capsys, tmp_path
    ):
        argv = ["cluster", "--replicas", "2", "--requests", "16",
                "--rate", "50", "--iterations", "4", "--continuous"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        m1, m2 = tmp_path / "ma.json", tmp_path / "mb.json"
        t1 = tmp_path / "t.json"
        assert main(argv + ["--json", str(p1), "--metrics-out", str(m1),
                            "--trace-out", str(t1)]) == 0
        assert main(argv + ["--json", str(p2), "--metrics-out", str(m2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

        doc = json.loads(p1.read_text())
        assert doc["submitted"] == 16
        trace = json.loads(t1.read_text())
        assert validate_chrome_trace(trace) > 0
        names = {e["name"] for e in trace["traceEvents"]}
        assert "queued" in names

    def test_observer_output_matches_unobserved_report(
        self, capsys, tmp_path
    ):
        argv = ["cluster", "--replicas", "2", "--requests", "16",
                "--rate", "50", "--iterations", "4"]
        with_obs = tmp_path / "obs.json"
        without = tmp_path / "plain.json"
        assert main(argv + ["--json", str(with_obs), "--metrics-out",
                            str(tmp_path / "m.prom")]) == 0
        assert main(argv + ["--json", str(without)]) == 0
        capsys.readouterr()
        assert with_obs.read_bytes() == without.read_bytes()
