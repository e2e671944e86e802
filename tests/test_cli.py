"""Unit tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.model == "dit"
        assert args.ablation == "all"

    def test_ablation_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--ablation", "everything"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model == "dit"
        assert args.requests == 8
        assert args.batch_size == 8
        assert args.max_wait == 0.0
        assert not args.calibrate

    def test_serve_seed_plumbing_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--model-seed", "3", "--calibration-seed", "7"]
        )
        assert args.model_seed == 3
        assert args.calibration_seed == 7

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.models == "dit"
        assert args.replicas == 4
        assert args.accelerator == "exion24"
        assert args.router == "jsq"
        assert args.arrival == "poisson"
        assert args.seed == 0
        assert args.timeout is None
        assert not args.execute

    def test_cluster_choice_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--router", "random"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--arrival", "weibull"])

    @pytest.mark.parametrize("command", ("generate", "serve", "cluster",
                                         "explore", "program", "trace"))
    def test_zero_iterations_rejected_naming_the_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--iterations", "0"])
        assert "argument --iterations: must be >= 1, got 0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command,flag,value,rule", (
        ("cluster", "--replicas", "0", ">= 1"),
        ("cluster", "--rate", "0", "> 0"),
        ("cluster", "--max-queue-depth", "0", ">= 1"),
        ("cluster", "--slo-target", "-1", "> 0"),
        ("cluster", "--timeout", "-1", ">= 0"),
        ("cluster", "--dwell", "0", "> 0"),
        ("cluster", "--period", "0", "> 0"),
        ("cluster", "--requests", "-3", ">= 0"),
        ("cluster", "--batch-size", "0", ">= 1"),
        ("serve", "--batch-size", "0", ">= 1"),
        ("trace", "--batch-size", "0", ">= 1"),
        ("simulate", "--batch", "0", ">= 1"),
        ("program", "--batch", "0", ">= 1"),
        ("serve", "--quantum", "0", "> 0"),
        ("serve", "--max-wait", "-1", ">= 0"),
        ("cluster", "--rate", "nan", "> 0"),
    ))
    def test_bad_numbers_rejected_naming_the_flag(self, command, flag, value,
                                                  rule, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        # A float flag echoes "0" as "0.0": the value is a prefix either way.
        assert f"argument {flag}: must be {rule}, got {value}" in (
            capsys.readouterr().err)

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.strategy == "random"
        assert args.budget == 12
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.seed == 0
        assert args.objectives is None
        assert not args.cluster

    def test_explore_choice_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--strategy", "bayesian"])

    def test_explore_set_is_repeatable(self):
        args = build_parser().parse_args([
            "explore", "--set", "num_dscs=4,24", "--set", "dram=gddr6",
        ])
        assert args.set == ["num_dscs=4,24", "dram=gddr6"]

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--list"])
        assert args.list
        assert args.run is None
        assert args.out == "bench_results"
        assert not args.strict

    def test_bench_help_offers_no_latency_knob(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--help"])
        assert "latency" not in capsys.readouterr().out


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "stable_diffusion" in out
        assert "N=2" in out  # DiT's FFN-Reuse config

    def test_generate(self, capsys):
        code = main([
            "generate", "--model", "mld", "--iterations", "6",
            "--compare-vanilla",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ffn_output_sparsity" in out
        assert "PSNR vs vanilla" in out

    def test_generate_with_class_label(self, capsys):
        code = main([
            "generate", "--model", "dit", "--iterations", "4",
            "--class-label", "3", "--ablation", "ffnr",
        ])
        assert code == 0

    def test_serve(self, capsys):
        code = main([
            "serve", "--model", "dit", "--requests", "5",
            "--batch-size", "2", "--iterations", "5", "--class-label", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Served dit" in out
        assert "batches=3" in out
        assert "samples/s" in out

    def test_serve_compare_sequential(self, capsys):
        code = main([
            "serve", "--model", "mdm", "--requests", "2",
            "--batch-size", "2", "--iterations", "4",
            "--compare-sequential",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "speedup" in out

    def test_serve_zero_requests(self, capsys):
        code = main([
            "serve", "--requests", "0", "--iterations", "4",
            "--compare-sequential",
        ])
        assert code == 0
        assert "batches=0" in capsys.readouterr().out

    def test_serve_max_wait_tail_batch(self, capsys):
        code = main([
            "serve", "--model", "dit", "--requests", "3",
            "--batch-size", "2", "--iterations", "4",
            "--max-wait", "0.05", "--class-label", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # 3 requests at batch size 2: one full batch, one waited-out tail.
        assert "batches=2" in out

    def test_cluster(self, capsys):
        code = main([
            "cluster", "--replicas", "2", "--requests", "16",
            "--rate", "200", "--router", "jsq",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jsq routing, 2 x exion24" in out.lower() or "jsq" in out
        assert "Per-replica usage" in out
        assert "replica1" in out

    def test_cluster_json_is_seed_deterministic(self, capsys, tmp_path):
        import json

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["cluster", "--replicas", "2", "--requests", "12",
                "--rate", "300", "--router", "cache_affinity",
                "--seed", "5", "--slo-target", "1.0"]
        assert main(argv + ["--json", str(first)]) == 0
        assert main(argv + ["--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        data = json.loads(first.read_text())
        assert data["submitted"] == 12
        assert data["scenario"]["router"] == "cache_affinity"
        assert data["scenario"]["seed"] == 5

    def test_cluster_trace_round_trip(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "cluster", "--requests", "10", "--rate", "100",
            "--replicas", "1", "--save-trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "cluster", "--trace", str(trace_path), "--replicas", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted        10" in out

    def test_cluster_mmpp_with_slo(self, capsys):
        assert main([
            "cluster", "--arrival", "mmpp", "--requests", "12",
            "--rate", "400", "--replicas", "1", "--timeout", "2.0",
            "--max-queue-depth", "8", "--slo-target", "0.5",
        ]) == 0
        assert "SLO attainment" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--model", "mdm"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "EXION24" in out

    def test_simulate_edge(self, capsys):
        assert main(["simulate", "--model", "mld",
                     "--accelerator", "exion4"]) == 0
        assert "EXION4" in capsys.readouterr().out

    def test_opcount(self, capsys):
        assert main(["opcount"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_conmerge(self, capsys):
        assert main(["conmerge", "--model", "mdm"]) == 0
        out = capsys.readouterr().out
        assert "condensing" in out
        assert "merging" in out

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig06_ffn_reuse" in out
        assert "serve_throughput" in out

    def test_bench_requires_an_action(self, capsys):
        assert main(["bench"]) == 2

    def test_bench_run_writes_schema_valid_json(self, capsys, tmp_path):
        import json

        from repro.bench.schema import validate_aggregate, validate_result

        assert main(["bench", "--run", "table2_specs",
                     "--out", str(tmp_path), "--show"]) == 0
        out = capsys.readouterr().out
        assert "Ran 1 benches" in out
        assert "Table II" in out  # --show renders the table
        result = json.loads((tmp_path / "BENCH_table2_specs.json").read_text())
        validate_result(result)
        assert result["metrics"]["exion4.peak_tops"]["value"] == 39.2
        aggregate = json.loads((tmp_path / "BENCH_repro.json").read_text())
        validate_aggregate(aggregate)

    def test_bench_compare_identical_and_regressed(self, capsys, tmp_path):
        import json

        assert main(["bench", "--run", "table2_specs",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        baseline = tmp_path / "BENCH_repro.json"
        assert main(["bench", "--compare", str(baseline),
                     str(baseline)]) == 0
        assert "no differences" in capsys.readouterr().out

        data = json.loads(baseline.read_text())
        metrics = data["results"]["table2_specs"]["metrics"]
        metrics["exion4.peak_tops"]["value"] *= 0.5
        regressed = tmp_path / "BENCH_regressed.json"
        regressed.write_text(json.dumps(data))
        assert main(["bench", "--compare", str(baseline),
                     str(regressed)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

        # A metric that vanished is a note, and a failure under --strict
        # (what `make bench-compare` passes).
        del metrics["exion4.peak_tops"]
        missing = tmp_path / "BENCH_missing.json"
        missing.write_text(json.dumps(data))
        compare = ["bench", "--compare", str(baseline), str(missing)]
        assert main(compare) == 0
        assert main(compare + ["--strict"]) == 1
        assert "exion4.peak_tops missing" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_single_sourced_from_pyproject(self):
        """repro.__version__ comes from the [project] table, one place."""
        from pathlib import Path

        import repro
        from repro._version import _from_pyproject

        pyproject = (
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text(encoding="utf-8")
        assert f'version = "{repro.__version__}"' in pyproject
        assert _from_pyproject() == repro.__version__

    def test_regex_fallback_survives_reordered_project_table(self):
        """The 3.10 parser must not stop at a bracketed value that
        precedes the version key."""
        from repro._version import _regex_version

        text = (
            '[build-system]\nrequires = ["setuptools"]\n\n'
            '[project]\nname = "repro"\ndependencies = ["numpy"]\n'
            'version = "9.9.9"\n\n[tool.ruff]\nline-length = 100\n'
        )
        assert _regex_version(text) == "9.9.9"
        assert _regex_version("no project table here") is None


class TestProgramCommand:
    def test_program_defaults(self):
        args = build_parser().parse_args(["program"])
        assert args.model == "dit"
        assert args.ablation == "all"
        assert not args.json

    def test_program_renders_table(self, capsys):
        assert main(["program", "--model", "dit"]) == 0
        out = capsys.readouterr().out
        assert "IterationProgram dit" in out
        assert "ffn_linear1" in out
        assert "plan digest" in out

    def test_program_json_is_canonical_plan(self, capsys):
        import json as _json

        from repro.program import lower_plan, plan_json
        from repro.workloads.specs import get_spec

        assert main(["program", "--model", "mld", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == plan_json(lower_plan(get_spec("mld")))
        doc = _json.loads(out)
        assert doc["program"]["model"] == "mld"

    def test_program_ablation_shapes_plan(self, capsys):
        import json as _json

        assert main(["program", "--model", "dit", "--ablation", "base",
                     "--iterations", "5", "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["enable_ffn_reuse"] is False
        assert doc["totals"]["iterations"] == 5

    def test_program_compile_renders_schedule(self, capsys):
        assert main(["program", "--model", "dit", "--iterations", "10",
                     "--compile"]) == 0
        out = capsys.readouterr().out
        assert "CompiledPlan dit" in out
        assert "10 iterations -> 4 phases" in out
        assert "16x16 tiles" in out
        assert "ffn index sets:" in out
        assert "attention index sets:" in out

    def test_program_compile_truncates_long_schedules(self, capsys):
        assert main(["program", "--model", "dit", "--ablation", "base",
                     "--compile"]) == 0
        out = capsys.readouterr().out
        assert "(88 more)" in out  # 100 dense-only phases, 12 shown
        assert "no sparse index sets" in out

    def test_program_compile_json_matches_compiled_plan(self, capsys):
        import json as _json

        from repro.core.config import ExionConfig
        from repro.program import compile_plan, lower_plan
        from repro.workloads.specs import get_spec

        assert main(["program", "--model", "mld", "--compile",
                     "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        plan = lower_plan(get_spec("mld"),
                          config=ExionConfig.for_model("mld"))
        assert doc == compile_plan(plan).index_set_stats()
        assert doc["ffn"]["mask_shape"] == [
            plan.program.tokens, plan.program.hidden
        ]
