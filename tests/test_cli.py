"""CLI tests: config parsing, subcommands, exit codes, golden outputs."""

import dataclasses
import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

from zipvl import cli, engine, workload
from zipvl.errors import ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden"
WORKLOAD = str(GOLDEN / "workload.csv")


def _load_script(name):
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the argv scripts/update_golden.py writes each golden file with
GOLDEN_COMMANDS = _load_script("update_golden").COMMANDS


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfigParsing:
    def test_key_value_with_comments(self):
        raw = cli.parse_config_text("# header\n tau = 0.9\nlayers=8  # inline\n\nmode=fixed\n")
        assert raw == {"tau": "0.9", "layers": "8", "mode": "fixed"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("tau=0.9\ntau=0.5\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("just some words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"no_such_knob": "1"})

    def test_type_coercion(self):
        cfg = cli.build_config(
            {"tau": "0.5", "layers": "6", "quantize": "true", "mode": "fixed"}
        )
        assert cfg.tau == 0.5 and cfg.layers == 6 and cfg.quantize is True
        assert cfg.mode == "fixed"

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"quantize": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"layers": "six"})

    def test_overrides_win(self):
        cfg = cli.build_config({"tau": "0.5"}, {"tau": 0.9, "seed": None})
        assert cfg.tau == 0.9
        assert cfg.seed == 1234  # None override ignored


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus=1\n")
        rc, _, err = run_cli(capsys, "--config", str(path), "run")
        assert rc == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys):
        rc, _, _ = run_cli(capsys, "--config", "/no/such/file.cfg", "run")
        assert rc == 2

    def test_missing_workload_file(self, capsys):
        rc, _, err = run_cli(capsys, "run", "--workload-file", "/no/such/w.csv")
        assert rc == 2
        assert "workload file" in err

    def test_bad_tau_is_config_error(self, capsys):
        rc, _, _ = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--tau", "0")
        assert rc == 2

    def test_bad_workload_format_is_format_error(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("wrong,header,here\n0,0,1.0\n")
        rc, _, _ = run_cli(capsys, "run", "--workload-file", str(path))
        assert rc == 10

    # 1e50 parses as a finite float but overflows float32 to inf
    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0", "1e50"])
    def test_bad_workload_score_is_format_error(self, capsys, tmp_path, bad):
        path = tmp_path / "w.csv"
        path.write_text(f"layer,token,score\n0,0,1.0\n0,1,2.0\n1,0,0.5\n1,1,{bad}\n")
        rc, _, err = run_cli(capsys, "run", "--workload-file", str(path))
        assert rc == 10
        assert "line 5" in err

    def test_ragged_workload_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("layer,token,score\n0,0,1.0\n0,1,2.0\n1,0,0.5\n2,0,1.0\n2,1,1.0\n")
        rc, out, err = run_cli(capsys, "run", "--workload-file", str(path))
        assert (rc, out) == (10, "")
        assert err == (
            "error: line 5: workload rows are ragged: layer 1 ends after 1 of layer 0's 2 tokens\n"
        )

    def test_bad_concentration_is_domain_error(self, capsys):
        rc, _, _ = run_cli(capsys, "gen-workload", "--kind", "peaked", "--concentration", "0")
        assert rc == 4

    def test_gen_workload_needs_kind(self, capsys):
        rc, _, _ = run_cli(capsys, "gen-workload")
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "compare", "sweep-tau"])
    def test_decode_past_max_seq_is_bounds_error_before_prefill(
        self, capsys, tmp_path, monkeypatch, command
    ):
        prefills = []
        monkeypatch.setattr(engine, "prefill", lambda *a, **k: prefills.append(1))
        path = tmp_path / "c.cfg"
        path.write_text("max_seq=16\nn=16\nsteps=8\nlayers=1\nd_model=8\nheads=1\n")
        rc, out, err = run_cli(capsys, "--config", str(path), command)
        assert rc == 9
        assert "max_seq" in err and out == ""
        assert prefills == []

    @pytest.mark.parametrize("command", ["run", "compare", "sweep-tau"])
    def test_negative_steps_is_bounds_error_before_prefill(
        self, capsys, tmp_path, monkeypatch, command
    ):
        prefills = []
        monkeypatch.setattr(engine, "prefill", lambda *a, **k: prefills.append(1))
        path = tmp_path / "c.cfg"
        path.write_text("n=16\nsteps=-1\nlayers=1\nd_model=8\nheads=1\n")
        rc, out, err = run_cli(capsys, "--config", str(path), command)
        assert rc == 9
        assert err == "error: steps must be >= 0\n" and out == ""
        assert prefills == []

    def test_decode_up_to_max_seq_succeeds(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_seq=24\nn=16\nsteps=8\nlayers=1\nd_model=8\nheads=1\n")
        rc, out, _ = run_cli(capsys, "--config", str(path), "run")
        assert rc == 0
        assert len(json.loads(out)["generated"]) == 8

    def test_success_is_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "run", "--workload-file", WORKLOAD)
        assert rc == 0
        assert out.startswith("{")

    def test_exit_codes_documented_in_help(self):
        text = cli.make_parser().format_help()
        for _, code in cli.EXIT_CODES:
            assert str(code) in text
        assert "FormatError" in text and "ConfigError" in text


def test_formats_config_table_lists_every_config_key():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    table = doc.split("| key ", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert documented == [f.name for f in dataclasses.fields(cli.ExperimentConfig)]


def test_formats_exit_code_table_matches_exit_codes():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    table = doc.split("## Exit codes", 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"^\| (\d+) +\| (?:`(\w+)`)?", table, flags=re.MULTILINE)
    expected = [("0", "")] + [(str(code), exc.__name__) for exc, code in cli.EXIT_CODES]
    assert documented == expected


class TestDeterminism:
    def test_run_twice_byte_identical(self, capsys):
        rc1, out1, _ = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--tau", "0.9")
        rc2, out2, _ = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--tau", "0.9")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_model_run_twice_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=32\nsteps=4\nlayers=2\nd_model=32\nheads=2\n")
        rc1, out1, _ = run_cli(capsys, "--config", str(cfg), "run", "--tau", "0.9")
        rc2, out2, _ = run_cli(capsys, "--config", str(cfg), "run", "--tau", "0.9")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_model_run(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=32\nsteps=4\nlayers=2\nd_model=32\nheads=2\n")
        _, out1, _ = run_cli(capsys, "--config", str(cfg), "--seed", "1", "run")
        _, out2, _ = run_cli(capsys, "--config", str(cfg), "--seed", "2", "run")
        assert out1 != out2

    def test_gen_workload_deterministic(self, capsys):
        args = ("gen-workload", "--kind", "peaked", "--n", "16", "--layers", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert out1.splitlines()[0] == "layer,token,score"


class TestGolden:
    """Each golden file against the command that regenerates it."""

    def check(self, capsys, name):
        rc, out, _ = run_cli(capsys, *GOLDEN_COMMANDS[name])
        assert rc == 0
        assert out == (GOLDEN / name).read_text()

    def test_run_json(self, capsys):
        self.check(capsys, "run.json")

    def test_run_csv(self, capsys):
        self.check(capsys, "run.csv")

    def test_sweep_json(self, capsys):
        self.check(capsys, "sweep.json")

    def test_compare_json(self, capsys):
        self.check(capsys, "compare.json")

    def test_gen_workload_golden(self, capsys):
        self.check(capsys, "gen_workload.csv")

    def test_every_command_is_checked(self):
        checked = {"run.json", "run.csv", "sweep.json", "compare.json", "gen_workload.csv"}
        assert set(GOLDEN_COMMANDS) == checked
        assert {p.name for p in GOLDEN.iterdir()} == checked | {"workload.csv"}


class TestSubcommandSemantics:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        rc, out, _ = run_cli(
            capsys, "--out", str(out_path), "run", "--workload-file", WORKLOAD
        )
        assert rc == 0
        assert out == ""
        assert json.loads(out_path.read_text())["mean_ratio"] > 0

    def test_sweep_monotone_and_terminates_at_one(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep-tau", "--workload-file", WORKLOAD, "--taus", "0.5,0.9,1.0"
        )
        rows = json.loads(out)
        ratios = [r["mean_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == 1.0

    def test_compare_adaptive_meets_tau_fixed_does_not(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--workload-file", WORKLOAD, "--tau", "0.9")
        res = json.loads(out)
        assert res["adaptive_layers_below_tau"] == 0
        assert res["fixed_layers_below_tau"] >= 1
        by_mode = {e["mode"]: e for e in res["modes"]}
        assert abs(res["fixed_ratio_used"] - by_mode["zipvl-exact"]["mean_ratio"]) <= 1e-12

    def test_compare_on_model_reports_logit_deltas(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=24\nsteps=0\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\n")
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "compare", "--tau", "0.9")
        res = json.loads(out)
        assert rc == 0
        by_mode = {e["mode"]: e for e in res["modes"]}
        assert by_mode["zipvl-exact"]["logit_delta_vs_dense"] >= 0.0
        assert by_mode["fixed"]["logit_delta_vs_dense"] >= 0.0
        assert by_mode["dense"]["logit_delta_vs_dense"] == 0.0

    def test_compare_custom_mode_list(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=24\nsteps=0\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\n")
        rc, out, _ = run_cli(
            capsys, "--config", str(cfg), "compare",
            "--modes", "zipvl-probe,dense", "--tau", "0.9",
        )
        res = json.loads(out)
        assert rc == 0
        assert [e["mode"] for e in res["modes"]] == ["zipvl-probe", "dense"]
        assert "fixed_ratio_used" not in res

    @pytest.mark.parametrize("modes", ["", "zipvl-probe,zipvl-exact,fixed,dense"])
    def test_compare_prefills_once_per_mode(self, monkeypatch, modes):
        calls = []
        prefill = engine.prefill

        def counted(model, tokens, policy, *args, **kwargs):
            calls.append(policy.mode)
            return prefill(model, tokens, policy, *args, **kwargs)

        monkeypatch.setattr(engine, "prefill", counted)
        cfg = cli.build_config(
            {}, {"n": 24, "steps": 2, "layers": 2, "d_model": 32, "heads": 2,
                 "vocab_size": 64, "modes": modes},
        )
        res = cli.cmd_compare(cfg)
        assert sorted(calls) == sorted(e["mode"] for e in res["modes"])

    @pytest.mark.parametrize(
        "command, overrides",
        [
            (cli.cmd_compare, {"modes": ""}),
            (cli.cmd_compare, {"modes": "zipvl-probe,zipvl-exact,fixed,dense"}),
            (cli.cmd_sweep_tau, {"taus": "0.5,0.9,1.0"}),
            (cli.cmd_run, {"repeats": 3}),
        ],
    )
    def test_model_built_once_per_command(self, monkeypatch, command, overrides):
        built, used = [], []
        init_model, prefill = engine.init_model, engine.prefill

        def counted_init(config):
            built.append(init_model(config))
            return built[-1]

        def recorded_prefill(model, tokens, policy, *args, **kwargs):
            used.append(model)
            return prefill(model, tokens, policy, *args, **kwargs)

        monkeypatch.setattr(engine, "init_model", counted_init)
        monkeypatch.setattr(engine, "prefill", recorded_prefill)
        cfg = cli.build_config(
            {}, {"n": 24, "steps": 2, "layers": 2, "d_model": 32, "heads": 2,
                 "vocab_size": 64, **overrides},
        )
        command(cfg)
        assert len(built) == 1
        assert len(used) >= 3 and all(m is built[0] for m in used)

    @pytest.mark.parametrize(
        "command, overrides, generated",
        [
            (cli.cmd_compare, {}, 1),
            (cli.cmd_sweep_tau, {}, 1),
            (cli.cmd_run, {}, 1),
            (cli.cmd_run, {"repeats": 3}, 3),  # each repeat draws its own workload
        ],
    )
    @pytest.mark.parametrize("source", ["file", "peaked"])
    def test_scores_loaded_once_per_command(
        self, monkeypatch, command, overrides, generated, source
    ):
        loader = "read_workload_csv" if source == "file" else "generate_workload"
        calls = []
        load = getattr(workload, loader)

        def counted(*args, **kwargs):
            calls.append(1)
            return load(*args, **kwargs)

        monkeypatch.setattr(workload, loader, counted)
        cfg = cli.build_config(
            {}, {"workload": source, "workload_file": WORKLOAD, "n": 32, "layers": 3, **overrides}
        )
        command(cfg)
        assert len(calls) == (1 if source == "file" else generated)

    @pytest.mark.parametrize(
        "command, overrides, decodes_per_repeat",
        [
            (cli.cmd_compare, {"modes": "zipvl-probe,zipvl-exact,fixed,dense"}, 0),
            (cli.cmd_sweep_tau, {"taus": "0.5,0.9,1.0"}, 0),
            (cli.cmd_run, {"repeats": 1}, 3),
            (cli.cmd_run, {"repeats": 2}, 3),
        ],
    )
    def test_only_run_decodes(self, monkeypatch, command, overrides, decodes_per_repeat):
        steps = []
        decode_step = engine.decode_step

        def counted(model, token, cache, position):
            steps.append(position)
            return decode_step(model, token, cache, position)

        monkeypatch.setattr(engine, "decode_step", counted)
        cfg = cli.build_config(
            {}, {"n": 24, "steps": 3, "layers": 2, "d_model": 32, "heads": 2,
                 "vocab_size": 64, **overrides},
        )
        command(cfg)
        assert steps == [24, 25, 26][:decodes_per_repeat] * cfg.repeats

    def test_compare_rejects_unknown_mode(self, capsys):
        rc, _, err = run_cli(
            capsys, "compare", "--workload-file", WORKLOAD, "--modes", "zipvl-exact,turbo"
        )
        assert rc == 2
        assert "turbo" in err

    def test_gen_workload_roundtrips_through_run(self, capsys, tmp_path):
        w_path = tmp_path / "w.csv"
        rc, _, _ = run_cli(
            capsys,
            "--out",
            str(w_path),
            "gen-workload",
            "--kind",
            "diffuse",
            "--n",
            "32",
            "--layers",
            "3",
        )
        assert rc == 0
        rc, out, _ = run_cli(capsys, "run", "--workload-file", str(w_path), "--tau", "0.9")
        assert rc == 0
        res = json.loads(out)
        assert len(res["layer_reports"]) == 3
        assert all(r["n"] == 32 for r in res["layer_reports"])

    def test_probe_mode_model_run(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n=48\nsteps=2\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\n"
            "mode=zipvl-probe\nprobe_recent=8\nprobe_random=8\n"
        )
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "run")
        res = json.loads(out)
        assert rc == 0
        assert all(r["probe_rows"] == 16 for r in res["layer_reports"])

    def test_run_prints_summary_on_stderr(self, capsys):
        _, out, err = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--tau", "0.9")
        assert err.startswith("summary: mean_ratio=")
        assert "flops_reduction=" in err and "kv_reduction=" in err
        assert "summary:" not in out  # stdout stays a pure artifact

    def test_run_output_survives_json_roundtrip(self, tmp_path):
        # everything in the report must be a plain python scalar or container
        cfg = cli.build_config(
            {"n": "16", "steps": "2", "layers": "2", "d_model": "32",
             "heads": "2", "vocab_size": "64"}
        )
        res = cli.cmd_run(cfg)
        assert json.loads(json.dumps(res)) == res


class TestRepeats:
    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError):
            cli.build_config({"repeats": "0"})

    @pytest.mark.parametrize("command", ["sweep-tau", "compare"])
    def test_repeats_rejected_outside_run(self, capsys, tmp_path, command):
        path = tmp_path / "c.cfg"
        path.write_text("repeats=3\n")
        rc, out, err = run_cli(
            capsys, "--config", str(path), command, "--workload-file", WORKLOAD
        )
        assert rc == 2
        assert "repeats" in err and out == ""

    def test_repeats_vary_prompt_but_not_model(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n=16\nsteps=0\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\nrepeats=3\n"
        )
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "run")
        res = json.loads(out)
        assert rc == 0
        entries = res["repeats"]
        assert [e["repeat"] for e in entries] == [0, 1, 2]
        prompts = [tuple(e["prompt"]) for e in entries]
        assert len(set(prompts)) == 3  # each repeat draws a fresh prompt

    def test_repeats_flag_and_csv_table(self, capsys):
        rc, out, _ = run_cli(
            capsys, "--format", "csv", "run",
            "--workload-file", WORKLOAD, "--repeats", "2",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "repeat" in header
        assert len(lines) == 1 + 2 * 4  # two repeats over the four-layer fixture

    def test_repeats_deterministic(self, capsys):
        a = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--repeats", "2")
        b = run_cli(capsys, "run", "--workload-file", WORKLOAD, "--repeats", "2")
        assert a == b
