"""Unit tests for the CLI."""

import json

import pytest

from repro.cli import build_parser, main

#: The smallest document ``obs diff`` reads: every field the diff uses.
MINIMAL_ANALYSIS = {
    "schema_version": 1,
    "busy_ns": 0,
    "critical_path": {"total_ns": 0},
    "fleet": {
        "components_ns": {},
        "latency": dict.fromkeys(
            ("count", "p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns"), 0
        ),
    },
    "slo": {},
    "tenants": {},
}


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
        ("serve", "--requests", "0", ">= 1"),
        ("trace", "--requests", "0", ">= 1"),
        ("obs analyze", "--requests", "0", ">= 1"),
        ("obs report", "--requests", "-2", ">= 1"),
        ("cluster", "--batch-size", "0", ">= 1"),
        ("serve", "--batch-size", "0", ">= 1"),
        ("trace", "--batch-size", "0", ">= 1"),
        ("simulate", "--batch", "0", ">= 1"),
        ("program", "--batch", "0", ">= 1"),
        ("serve", "--quantum", "0", "> 0"),
        ("serve", "--max-wait", "-1", ">= 0"),
        ("cluster", "--rate", "nan", "> 0"),
        ("serve", "--aging", "-1", "> 0"),
        ("cluster", "--aging", "-1", "> 0"),
        ("serve", "--deadline", "nan", ">= 0"),
        ("explore", "--workers", "0", ">= 1"),
    ))
    def test_bad_numbers_rejected_naming_the_flag(self, command, flag, value,
                                                  rule, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), flag, value])
        assert exc.value.code == 2
        # A float flag echoes "0" as "0.0": the value is a prefix either way.
        assert f"argument {flag}: must be {rule}, got {value}" in (
            capsys.readouterr().err)

    def test_an_infinite_number_is_rejected_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--rate", "inf"])
        assert exc.value.code == 2
        assert "argument --rate: must be finite, got inf" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    @pytest.mark.parametrize("spec,tenant,value", [
        ("a=x", "a", "x"), ("a=-1", "a", "-1"), ("a=2,b=inf", "b", "inf"),
    ])
    def test_a_bad_tenant_weight_is_a_usage_error(self, command, spec,
                                                  tenant, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--continuous", "--tenants", spec])
        assert exc.value.code == 2
        assert (f"argument --tenants: weight of {tenant!r} must be a finite "
                f"number > 0, got {value!r}") in capsys.readouterr().err

    def test_tenant_weights_parse(self):
        args = build_parser().parse_args(["serve", "--tenants", "a=2,b"])
        assert args.tenants == {"a": 2.0, "b": 1.0}

    @pytest.mark.parametrize("argv,message", [
        (["cluster", "--tenants", "a=2"],
         "bad --tenants: tenant weights need --continuous"),
        (["explore", "--set", "bogus=1"],
         "bad --set: unknown dimension 'bogus'; known: "),
        (["explore", "--set", "num_dscs=abc"],
         "bad --set: value 'abc' is outside dimension 'num_dscs'"),
    ], ids=["cluster-tenants-drain", "explore-set-dimension",
            "explore-set-value"])
    def test_a_refused_flag_exits_naming_it(self, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(message)

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

    @pytest.mark.parametrize("command", ["generate", "serve"])
    def test_prompt_and_class_label_exclude_each_other(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "--prompt", "x", "--class-label", "3"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "resnet"],
        ["serve", "--model", "resnet"],
        ["cluster", "--models", "dit,resnet"],
        ["explore", "--model", "resnet"],
        ["trace", "--model", "resnet"],
        ["program", "--model", "resnet"],
        ["simulate", "--model", "resnet"],
        ["conmerge", "--model", "resnet"],
    ], ids=lambda argv: argv[0])
    def test_an_unknown_model_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {argv[1]}: unknown model 'resnet'; "
                "known models: dit, ") in err

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
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--requests", "0", "--iterations", "4",
                "--compare-sequential",
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "batches=" not in captured.out
        assert "Traceback" not in captured.err

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

    def test_cluster_exits_on_a_bad_trace_row(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"arrival_s": 0.0, "model": "dit", "seed": 1}\n'
                        '{"arrival_s": 0.1, "model": "dit", "seed": -1}\n')
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit, match=r"^bad --trace: .*trace\.jsonl:2: "
                           r"seed must be a non-negative integer, got -1$"):
            main(["cluster", "--trace", str(path), "--json", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["cluster", "--trace", "{path}"], "--trace"),
        (["obs", "analyze", "--input", "{path}", "--out", "{out}"], "--input"),
        (["obs", "report", "--input", "{path}", "--out", "{out}"], "--input"),
        (["explore", "--space", "{path}", "--json", "{out}"], "--space"),
        (["obs", "diff", "{path}", "{good}"], "base"),
        (["obs", "diff", "{good}", "{path}"], "current"),
        (["bench", "--compare", "{path}", "{good}"], "--compare"),
    ], ids=["cluster-trace", "obs-analyze-input", "obs-report-input",
            "explore-space", "obs-diff-base", "obs-diff-current",
            "bench-compare"])
    @pytest.mark.parametrize("kind", ["missing", "malformed"])
    def test_a_bad_input_file_exits_naming_its_flag(
        self, tmp_path, argv, flag, kind
    ):
        path = tmp_path / "input.json"
        if kind == "malformed":
            path.write_text("{ torn\n", encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(MINIMAL_ANALYSIS), encoding="utf-8")
        out = tmp_path / "out.json"
        argv = [arg.format(path=path, good=good, out=out) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        message = exit_info.value.code
        assert isinstance(message, str) and message.startswith(f"bad {flag}: ")
        if kind == "missing":
            assert "No such file or directory" in message
        assert not out.exists()

    @pytest.mark.parametrize("doc,reason", [
        ({}, "schema_version None is not 1"),
        ([1, 2], "not an analysis document: a JSON list"),
        ({**MINIMAL_ANALYSIS, "schema_version": 2},
         "schema_version 2 is not 1"),
        ({k: v for k, v in MINIMAL_ANALYSIS.items() if k != "busy_ns"},
         "malformed analysis document (KeyError: 'busy_ns')"),
        ({**MINIMAL_ANALYSIS, "fleet": {"components_ns": {}, "latency": []}},
         "malformed analysis document (TypeError: "
         "list indices must be integers or slices, not str)"),
        ({**MINIMAL_ANALYSIS, "slo": [1]},
         "malformed analysis document (AttributeError: "
         "'list' object has no attribute 'items')"),
        ({**MINIMAL_ANALYSIS, "busy_ns": "x"},
         "malformed analysis document: busy_ns is 'x'"),
        ({**MINIMAL_ANALYSIS, "tenants": {"alice": {"tick_ns": None}}},
         "malformed analysis document: tenants.alice.tick_ns is None"),
    ], ids=["empty", "list", "schema-version", "busy-ns", "latency", "slo",
            "busy-ns-text", "tenant-tick-null"])
    @pytest.mark.parametrize("side", ["base", "current"])
    def test_obs_diff_refuses_a_foreign_document(self, tmp_path, doc, reason,
                                                 side):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(MINIMAL_ANALYSIS), encoding="utf-8")
        pair = [bad, good] if side == "base" else [good, bad]
        with pytest.raises(SystemExit) as exc:
            main(["obs", "diff", *map(str, pair)])
        assert exc.value.code == f"bad {side}: {reason}"

    def test_obs_diff_of_a_minimal_document_is_clean(self, capsys, tmp_path):
        path = tmp_path / "analysis.json"
        path.write_text(json.dumps(MINIMAL_ANALYSIS), encoding="utf-8")
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "0 regressions, 0 improvements, 8 unchanged" in (
            capsys.readouterr().out)

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
        assert "of the dense ops computed" in out
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

    def test_bench_prints_the_paper_predictions(self, capsys, tmp_path):
        import re

        assert main(["bench", "--run", "table2_specs",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # Table II predicts its two peak powers; the rest are inputs.
        assert re.search(r"^predictions +2 *$", out, re.M)
        assert re.search(r"^above 30% +2 *$", out, re.M)
        baseline = str(tmp_path / "BENCH_repro.json")
        assert main(["bench", "--compare", baseline, baseline]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^ +baseline +current *$", out, re.M)
        assert re.search(r"^predictions +2 +2 *$", out, re.M)


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
        # mld is a UNet: its decoder blocks mask half the tokens.
        tokens, hidden = plan.program.tokens, plan.program.hidden
        assert [s["mask_shape"] for s in doc["ffn"]["stages"]] == [
            [tokens, hidden], [-(-tokens // 2), hidden]
        ]
