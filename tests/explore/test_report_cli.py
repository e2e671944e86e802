"""Tests for the ExploreReport artifact and the ``repro explore`` CLI."""

import json

import pytest

from repro.canon import canonical_json
from repro.cli import main
from repro.explore import (
    Categorical,
    ExploreRunner,
    GridSearch,
    IntRange,
    Objective,
    SearchSpace,
)


def _tiny_report():
    space = SearchSpace([
        IntRange("x", 0, 2),
        Categorical("flag", (True, False)),
    ])

    def evaluate(point):
        return {"metric": float(point["x"]) + (0.5 if point["flag"] else 0.0)}

    return ExploreRunner(
        space, GridSearch(levels=2), evaluate,
        objectives=(Objective("metric", "lower_better"),), seed=0,
    ).run()


class TestExploreReport:
    def test_round_trip_preserves_canonical_json(self):
        report = _tiny_report()
        assert canonical_json(json.loads(report.to_json())) == report.to_json()

    def test_stats_are_outside_the_canonical_document(self):
        report = _tiny_report()
        assert report.stats is not None
        assert "stats" not in json.loads(report.to_json())

    def test_lookup_helpers(self):
        report = _tiny_report()
        assert report.frontier_evaluations()[0]["id"] == report.frontier[0]
        assert report.knee_evaluation()["id"] == report.knee
        with pytest.raises(KeyError):
            report.evaluation("nope")

    def test_render_mentions_frontier(self):
        text = _tiny_report().render()
        assert "Pareto frontier" in text
        assert "knee point" in text

    def test_bench_projection_validates(self):
        from repro.bench import validate_result

        result = _tiny_report().to_bench_result("explore_test")
        data = result.to_dict()
        validate_result(data)
        assert data["metrics"]["n_evaluations"]["value"] == 4.0
        assert data["metrics"]["frontier_best.metric"]["value"] == 0.0


EXPLORE_ARGS = [
    "explore", "--strategy", "random", "--budget", "3",
    "--iterations", "4",
    "--set", "num_dscs=4,24",
    "--set", "bandwidth_gbps=51.0,819.0",
    "--set", "enable_ffn_reuse=true",
    "--seed", "5",
]


class TestExploreCLI:
    def test_json_byte_identical_and_second_run_all_hits(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(EXPLORE_ARGS + ["--cache-dir", cache,
                                    "--json", out1]) == 0
        first = capsys.readouterr().out
        assert "cache_misses=3" in first
        assert main(EXPLORE_ARGS + ["--cache-dir", cache,
                                    "--json", out2]) == 0
        second = capsys.readouterr().out
        assert "cache_hits=3" in second
        assert "hit rate 100.0%" in second
        with open(out1, "rb") as a, open(out2, "rb") as b:
            assert a.read() == b.read()

    def test_json_document_shape(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(EXPLORE_ARGS + ["--json", out]) == 0
        capsys.readouterr()
        data = json.loads(open(out, encoding="utf-8").read())
        assert set(data) == {"space", "strategy", "objectives", "seed",
                             "evaluations", "frontier", "knee"}
        assert data["strategy"]["budget"] == 3
        assert len(data["evaluations"]) == 3
        assert [o["name"] for o in data["objectives"]] == [
            "latency_s", "energy_j", "accuracy_psnr_db",
        ]

    def test_grid_strategy_with_space_file(self, tmp_path, capsys):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "dimensions": [
                {"kind": "categorical", "name": "model", "values": ["dit"]},
                {"kind": "categorical", "name": "num_dscs",
                 "values": [4, 24]},
            ]
        }), encoding="utf-8")
        code = main([
            "explore", "--strategy", "grid", "--space", str(space_file),
            "--objectives", "latency_s,energy_j", "--iterations", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated=2" in out
        assert "Pareto frontier" in out

    def test_bad_set_expression_exits(self):
        with pytest.raises(SystemExit):
            main(["explore", "--set", "num_dscs"])

    @pytest.mark.parametrize("levels", ("0", "-2"))
    def test_grid_levels_below_one_names_the_flag(self, levels):
        with pytest.raises(SystemExit, match="--grid-levels"):
            main(["explore", "--strategy", "grid", "--grid-levels", levels])

    def test_halving_is_not_a_strategy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--strategy", "halving"])
        assert exc.value.code == 2  # argparse usage error
        assert "invalid choice: 'halving'" in capsys.readouterr().err
