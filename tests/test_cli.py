"""CLI tests: config parsing, subcommands, exit codes, golden outputs."""

import argparse
import csv
import dataclasses
import importlib.util
import io
import json
import pathlib
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


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

    # each character str.splitlines ends a line at, besides \n and \r
    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_lines_end_at_newline_only(self, capsys, tmp_path, sep):
        raw = cli.parse_config_text(f"workload_file=a{sep}b.csv\nmode=dense{sep}tau=0.5\n")
        assert raw == {"workload_file": f"a{sep}b.csv", "mode": f"dense{sep}tau=0.5"}
        with pytest.raises(ConfigError, match="config line 2:"):
            cli.parse_config_text(f"tau=0.9{sep}x\nno equals sign\n")
        path = tmp_path / "c.cfg"
        path.write_text(f"mode=dense{sep}tau=0.5\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, "--config", str(path), "run", "--workload-file", WORKLOAD)
        assert (rc, out) == (2, "")
        assert err.startswith("error: unknown mode 'dense")

    def test_crlf_lines_parse(self, capsys, tmp_path):
        assert cli.parse_config_text("tau=0.9\r\nlayers=8\r\n") == {"tau": "0.9", "layers": "8"}
        path = tmp_path / "c.cfg"
        path.write_bytes(b"tau=0.9\r\nlayers=2\r\n")
        rc, out, _ = run_cli(capsys, "--config", str(path), "run", "--workload-file", WORKLOAD)
        assert rc == 0 and strict_json(out)["policy"]["tau"] == 0.9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"no_such_knob": "1"})

    def test_type_coercion(self):
        cfg = cli.build_config(
            {"tau": "0.5", "layers": "6", "quantize": "true", "mode": "fixed"}
        )
        assert cfg.policy.tau == 0.5 and cfg.layers == 6 and cfg.policy.quantize is True
        assert cfg.policy.mode == "fixed"

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"quantize": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            cli.build_config({"layers": "six"})

    def test_overrides_win(self):
        cfg = cli.build_config({"tau": "0.5"}, {"tau": 0.9, "seed": None})
        assert cfg.policy.tau == 0.9
        assert cfg.seed == 1234  # None override ignored

    def test_taus_parsed_when_built(self):
        assert cli.build_config({"taus": " 0.5, 1 ,"}).sweep_taus == (0.5, 1.0)
        cfg = dataclasses.replace(cli.ExperimentConfig(), taus="0.9")
        assert cfg.sweep_taus == (0.9,)

    # raw values that coerce, in and out of each knob's range
    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "mode": st.sampled_from([*engine.MODES, "turbo"]),
                "tau": st.floats(),
                "fixed_ratio": st.one_of(st.floats(0.0, 1.0), st.floats()),
                "probe_recent": st.integers(-2, 200),
                "probe_random": st.integers(-2, 200),
                "keep_last": st.integers(-2, 200),
                "quantize": st.booleans(),
            },
        )
    )
    def test_property_policy_keys_build_the_policy(self, knobs):
        raw = {key: str(value) for key, value in knobs.items()}
        try:
            expected = dataclasses.replace(engine.SparsityPolicy(mode="zipvl-exact"), **knobs)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                cli.build_config(raw)
        else:
            assert cli.build_config(raw).policy == expected

    # the cross-key checks run when the config is built, by the constructor
    # and by dataclasses.replace alike, so no command has to repeat them
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"workload": "bogus"}, "workload must be one of"),
            ({"workload": "file"}, "workload=file needs workload_file=<path>"),
            ({"workload_file": "w.csv"}, "workload_file needs workload=file, not workload=model"),
            ({"workload": "peaked", "workload_file": "w.csv"}, "not workload=peaked"),
            ({"repeats": 0}, "repeats must be >= 1"),
            ({"seed": -1}, "seed=-1 must be >= 0"),
        ],
    )
    def test_experiment_config_checks_itself(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.ExperimentConfig(**change)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(cli.ExperimentConfig(), **change)


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus=1\n")
        rc, _, err = run_cli(capsys, "--config", str(path), "run")
        assert rc == 2
        assert "bogus" in err

    # keys of policy knobs that no longer exist: every layer runs the policy's
    # mode, sized by accumulated and ranked by normalized score, and a
    # quantization group is one head row
    @pytest.mark.parametrize("line", [
        "budget_metric=accumulated", "identify_metric=normalized", "dense_first_layers=0",
        "group_size=64",
    ])
    def test_removed_policy_key_is_unknown(self, capsys, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        rc, out, err = run_cli(capsys, "--config", str(path), "run", "--workload-file", WORKLOAD)
        assert rc == 2
        assert out == ""
        assert f"unknown config key {line.split('=')[0]!r}" in err

    def test_missing_config_file(self, capsys):
        rc, _, _ = run_cli(capsys, "--config", "/no/such/file.cfg", "run")
        assert rc == 2

    @pytest.mark.parametrize(
        "config, argv",
        [
            (f"workload_file={WORKLOAD}\n", ["run"]),
            (f"workload=peaked\nworkload_file={WORKLOAD}\n", ["run"]),
            (f"workload_file={WORKLOAD}\n", ["gen-workload", "--kind", "peaked"]),
            ("workload=file\n", ["run"]),
        ],
        ids=["file-only", "peaked-with-file", "gen-workload-with-file", "file-without-path"],
    )
    def test_workload_file_pairs_with_workload_file_source(self, capsys, tmp_path, config, argv):
        path = tmp_path / "c.cfg"
        path.write_text(config)
        rc, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert (rc, out) == (2, "")
        assert "workload=file" in err

    def test_workload_file_flag_implies_file_source(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("workload=peaked\n")
        rc, out, _ = run_cli(capsys, "--config", str(path), "run", "--workload-file", WORKLOAD)
        assert rc == 0 and strict_json(out)["prompt"] == []

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

    def test_negative_first_layer_names_line_2(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("layer,token,score\n-1,0,1\n")
        rc, out, err = run_cli(capsys, "run", "--workload-file", str(path))
        assert (rc, out) == (10, "")
        assert err == "error: line 2: rows out of order at layer=-1 token=0\n"

    def test_field_over_csv_limit_names_the_line(self, capsys, tmp_path):
        # the csv module refuses fields over 131072 characters
        path = tmp_path / "w.csv"
        path.write_text("layer,token,score\n0,0,1.0\n0,1," + "1" * 200000 + "\n")
        rc, out, err = run_cli(capsys, "run", "--workload-file", str(path))
        assert (rc, out) == (10, "")
        assert err.startswith("error: line 3: field larger than field limit")

    # the quoted "0\n" spans lines 2 and 3, so the rows after it start on line 4
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,-2\n", "line 4: score -2.0 is negative or not finite"),
            ("0,1,x\n", "line 4: could not convert string to float: 'x'"),
            ("0,1,1.0\n1,0,1.0\n", "line 6: workload rows are ragged: layer 1 ends after 1 of"),
        ],
    )
    def test_lines_are_physical_after_a_quoted_line_break(self, capsys, tmp_path, rows, message):
        path = tmp_path / "w.csv"
        path.write_bytes(('layer,token,score\n"0\n",0,1.0\n' + rows).encode())
        rc, out, err = run_cli(capsys, "run", "--workload-file", str(path))
        assert (rc, out) == (10, "")
        assert err.startswith(f"error: {message}")

    def test_non_utf8_workload_is_format_error(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_bytes(b"layer,token,score\n0,0,1.0\xff\n")
        rc, out, err = run_cli(capsys, "run", "--workload-file", str(path), "--tau", "0.9")
        assert (rc, out) == (10, "")
        assert err.startswith("error: workload file is not UTF-8: ")

    def test_non_utf8_config_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"n=4\xff\n")
        rc, out, err = run_cli(capsys, "--config", str(path), "sweep-tau", "--taus", "")
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")

    def test_utf8_config_comment_parses(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes("taus=0.5 # \u00e9t\u00e9\n".encode())
        rc, out, _ = run_cli(capsys, "--config", str(path), "sweep-tau", "--workload-file", WORKLOAD)
        assert rc == 0
        assert [row["tau"] for row in strict_json(out)] == [0.5]

    # any bytes, after nothing, a header, or a header and a partial row
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([b"", b"layer,token,score\n", b"layer,token,score\n0,0,"]), st.binary()
    )
    def test_property_any_workload_bytes_exit_0_or_10(self, prefix, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "w.csv")
            path.write_bytes(prefix + data)
            out = str(pathlib.Path(tmp, "out.json"))
            rc = cli.main(["--out", out, "run", "--workload-file", str(path), "--tau", "0.9"])
        assert rc in (0, 10)

    # the config rejects the empty taus when built, so any config that parses fails there too
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([b"", b"n=4\n", b"taus=0.5\n"]), st.binary())
    def test_property_any_config_bytes_exit_2_before_a_model(self, prefix, data):
        built = AssertionError("a model was built")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            engine, "init_model", side_effect=built
        ):
            path = pathlib.Path(tmp, "c.cfg")
            path.write_bytes(prefix + data)
            assert cli.main(["--config", str(path), "sweep-tau", "--taus", ""]) == 2

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ("", ["--seed", "-1", "run", "--workload-file", WORKLOAD], "seed=-1 must be >= 0"),
            ("seed=-5\n", ["run", "--workload-file", WORKLOAD], "seed=-5 must be >= 0"),
            ("n=-1\nlayers=1\nd_model=8\nheads=1\n", ["run"], "n=-1 must be >= 0"),
            ("", ["sweep-tau", "--taus", "0.5,abc", "--workload-file", WORKLOAD], "taus"),
            # tau, fixed_ratio and probe_recent are checked whatever the mode
            (
                "",
                ["run", "--mode", "fixed", "--tau", "nan", "--workload-file", WORKLOAD],
                "tau=nan outside (0, 1]",
            ),
            (
                "",
                ["compare", "--modes", "fixed,dense", "--tau", "7", "--workload-file", WORKLOAD],
                "tau=7.0 outside (0, 1]",
            ),
            # sweep-tau replaces the configured tau, which is checked all the same
            ("tau=7\n", ["sweep-tau", "--workload-file", WORKLOAD], "tau=7.0 outside (0, 1]"),
            (
                "fixed_ratio=0\n",
                ["run", "--mode", "zipvl-exact", "--workload-file", WORKLOAD],
                "fixed_ratio=0.0 outside (0, 1]",
            ),
            (
                "probe_recent=0\n",
                ["run", "--mode", "dense", "--workload-file", WORKLOAD],
                "probe_recent must be >= 1",
            ),
            (
                "",
                ["compare", "--modes", "dense,dense", "--workload-file", WORKLOAD],
                "mode 'dense' repeated in modes",
            ),
        ],
        ids=[
            "seed-flag", "seed-config", "model-n", "taus", "tau-nan-fixed-run",
            "tau-compare-without-adaptive", "tau-sweep-tau", "fixed-ratio-adaptive",
            "probe-recent-dense", "repeated-mode",
        ],
    )
    def test_bad_value_is_config_error(self, capsys, tmp_path, config, argv, message):
        path = tmp_path / "c.cfg"
        path.write_text(config)
        rc, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("tau=7", "tau=7.0 outside (0, 1]"),
            ("fixed_ratio=0", "fixed_ratio=0.0 outside (0, 1]"),
            ("probe_recent=0", "probe_recent must be >= 1"),
            ("keep_last=-1", "counts must be nonnegative"),
            ("taus=0.5,abc", "config key taus: could not convert string to float: 'abc'"),
            ("taus= , ", "taus is empty"),
        ],
    )
    @pytest.mark.parametrize(
        "command, source",
        [
            *((command, source) for command in ("run", "sweep-tau", "compare")
              for source in ("model", "file")),
            ("gen-workload", "peaked"),
        ],
    )
    def test_bad_knob_exits_2_before_any_work(
        self, capsys, tmp_path, monkeypatch, command, source, line, message
    ):
        # the config builds its policy and parses taus, so every command rejects
        # a bad one before any work
        def work(*args, **kwargs):
            raise AssertionError("a model was built or a workload read or generated")

        monkeypatch.setattr(engine, "init_model", work)
        monkeypatch.setattr(workload, "read_workload_csv", work)
        monkeypatch.setattr(workload, "generate_workload", work)
        path = tmp_path / "c.cfg"
        kind = "" if source in ("model", "file") else f"workload={source}\n"
        path.write_text(kind + line + "\n")
        files = ["--workload-file", WORKLOAD] if source == "file" else []
        rc, out, err = run_cli(capsys, "--config", str(path), command, *files)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("workload, code", [("model", 6), ("peaked", 4)])
    def test_zero_n_keeps_its_exit_code(self, capsys, tmp_path, workload, code):
        path = tmp_path / "c.cfg"
        path.write_text(f"n=0\nworkload={workload}\nlayers=1\nd_model=8\nheads=1\n")
        rc, out, _ = run_cli(capsys, "--config", str(path), "run")
        assert (rc, out) == (code, "")

    def test_bad_concentration_is_domain_error(self, capsys):
        rc, _, _ = run_cli(capsys, "gen-workload", "--kind", "peaked", "--concentration", "0")
        assert rc == 4

    def test_overflowing_concentration_is_domain_error(self, capsys):
        argv = ["gen-workload", "--kind", "diffuse", "--n", "16", "--concentration", "1e-320"]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (4, "")
        assert err.startswith("error: concentration=1e-320 overflows the diffuse draws")

    @pytest.mark.parametrize("target", ["dir", "missing-parent"])
    @pytest.mark.parametrize(
        "argv",
        [["gen-workload", "--kind", "peaked", "--n", "8"], ["run", "--workload-file", WORKLOAD]],
        ids=["gen-workload", "run"],
    )
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, target, argv):
        out_path = tmp_path if target == "dir" else tmp_path / "no" / "such" / "out"
        rc, out, err = run_cli(capsys, "--out", str(out_path), *argv)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: cannot write output: ")

    def test_gen_workload_needs_kind(self, capsys):
        rc, _, _ = run_cli(capsys, "gen-workload")
        assert rc == 2

    def test_gen_workload_rejects_repeats(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("repeats=3\n")
        rc, out, err = run_cli(
            capsys, "--config", str(path), "gen-workload", "--kind", "peaked", "--n", "4"
        )
        assert rc == 2
        assert "repeats" in err and out == ""

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
        assert len(strict_json(out)["generated"]) == 8

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
    assert documented == list(cli.config_keys())


def test_formats_config_table_defaults_are_the_config_defaults():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    table = doc.split("| key ", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| \w+ +\| ([^|]*?) +\|", table, flags=re.MULTILINE)
    documented = {key: "" if cell == "empty" else cell.strip("`") for key, cell in rows}
    assert list(documented) == list(cli.config_keys())
    assert cli.build_config(documented) == cli.ExperimentConfig()


def test_no_config_key_is_declared_twice():
    # the policy's keys live on SparsityPolicy alone, not mirrored on the config
    config = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    policy = [f.name for f in dataclasses.fields(engine.SparsityPolicy)]
    assert set(config) & set(policy) == set()
    keys = list(cli.config_keys())
    assert len(keys) == len(config) - 1 + len(policy)
    assert set(keys) == {*config, *policy} - {"policy"}


def test_every_flag_sets_a_config_key():
    # main hands build_config every parsed option whose dest is a config key
    keys = cli.config_keys()
    parser = cli.make_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        (name, action.dest)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    }
    assert {name for name, _ in dests} == set(subparsers.choices)
    assert {d for d in dests if d[1] not in keys} == set()
    assert [a.dest for a in parser._actions if a.dest in keys] == ["seed"]


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
        strict_json(out1)

    def test_model_run_twice_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=32\nsteps=4\nlayers=2\nd_model=32\nheads=2\n")
        rc1, out1, _ = run_cli(capsys, "--config", str(cfg), "run", "--tau", "0.9")
        rc2, out2, _ = run_cli(capsys, "--config", str(cfg), "run", "--tau", "0.9")
        assert rc1 == rc2 == 0
        assert out1 == out2
        strict_json(out1)

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
        if name.endswith(".json"):
            strict_json(out)

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


def csv_cell(value) -> str:
    """A JSON value as a CSV cell shows it: float repr, lists joined by ';', null empty."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(csv_cell(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class TestCsvTables:
    """The sweep-tau and compare CSV tables hold the JSON output's rows, cell by cell."""

    @pytest.mark.parametrize("name, rows", [
        ("sweep.json", lambda obj: obj),
        ("compare.json", lambda obj: obj["modes"]),
    ], ids=["sweep-tau", "compare"])
    def test_cells_equal_the_json_values(self, capsys, name, rows):
        rc, out, _ = run_cli(capsys, "--format", "csv", *GOLDEN_COMMANDS[name])
        assert rc == 0
        want = rows(strict_json((GOLDEN / name).read_text()))
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == sorted(want[0])
        assert table[1:] == [[csv_cell(row[col]) for col in table[0]] for row in want]

    def test_compare_lists_join_with_semicolons_and_null_is_empty(self, capsys):
        rc, out, _ = run_cli(capsys, "--format", "csv", *GOLDEN_COMMANDS["compare.json"])
        assert rc == 0
        modes = strict_json((GOLDEN / "compare.json").read_text())["modes"]
        for row, mode in zip(csv.DictReader(io.StringIO(out)), modes, strict=True):
            # a score workload has no logits, so its logit delta is null
            assert mode["logit_delta_vs_dense"] is None and row["logit_delta_vs_dense"] == ""
            assert [float(x) for x in row["retained_mass"].split(";")] == mode["retained_mass"]


class TestSubcommandSemantics:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        rc, out, _ = run_cli(
            capsys, "--out", str(out_path), "run", "--workload-file", WORKLOAD
        )
        assert rc == 0
        assert out == ""
        assert strict_json(out_path.read_text())["mean_ratio"] > 0

    def test_sweep_monotone_and_terminates_at_one(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep-tau", "--workload-file", WORKLOAD, "--taus", "0.5,0.9,1.0"
        )
        rows = strict_json(out)
        ratios = [r["mean_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == 1.0

    def test_compare_adaptive_meets_tau_fixed_does_not(self, capsys):
        rc, out, _ = run_cli(capsys, "compare", "--workload-file", WORKLOAD, "--tau", "0.9")
        res = strict_json(out)
        assert res["adaptive_layers_below_tau"] == 0
        assert res["fixed_layers_below_tau"] >= 1
        by_mode = {e["mode"]: e for e in res["modes"]}
        assert abs(res["fixed_ratio_used"] - by_mode["zipvl-exact"]["mean_ratio"]) <= 1e-12

    def test_compare_on_model_reports_logit_deltas(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=24\nsteps=0\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\n")
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "compare", "--tau", "0.9")
        res = strict_json(out)
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
        res = strict_json(out)
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

    # dense first, the listed modes in order, fixed last at the adaptive ratio
    @pytest.mark.parametrize(
        "modes, order",
        [
            ("", ["dense", "zipvl-exact", "fixed"]),
            ("fixed,zipvl-probe,zipvl-exact", ["dense", "zipvl-probe", "zipvl-exact", "fixed"]),
            ("zipvl-exact,dense,fixed", ["dense", "zipvl-exact", "fixed"]),
        ],
    )
    def test_compare_run_order(self, monkeypatch, modes, order):
        calls = []
        prefill = engine.prefill

        def counted(model, tokens, policy, *args, **kwargs):
            calls.append(policy)
            return prefill(model, tokens, policy, *args, **kwargs)

        monkeypatch.setattr(engine, "prefill", counted)
        cfg = cli.build_config(
            {}, {"n": 24, "steps": 2, "layers": 2, "d_model": 32, "heads": 2,
                 "vocab_size": 64, "modes": modes},
        )
        res = cli.cmd_compare(cfg)
        assert [policy.mode for policy in calls] == order
        assert calls[-1].fixed_ratio == res["fixed_ratio_used"]

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
        files = {"workload_file": WORKLOAD} if source == "file" else {}
        cfg = cli.build_config({}, {"workload": source, **files, "n": 32, "layers": 3, **overrides})
        if source == "file" and cfg.repeats > 1:
            # every repeat would read the same scores, so run refuses before reading
            with pytest.raises(ConfigError):
                command(cfg)
            assert calls == []
            return
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

    def test_compare_rejects_unknown_mode(self, capsys, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("a workload was read")

        monkeypatch.setattr(workload, "read_workload_csv", read)
        rc, _, err = run_cli(
            capsys, "compare", "--workload-file", WORKLOAD, "--modes", "zipvl-exact,turbo"
        )
        assert rc == 2
        assert err == f"error: unknown mode 'turbo'; expected one of {engine.MODES}\n"

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
        res = strict_json(out)
        assert len(res["layer_reports"]) == 3
        assert all(r["n"] == 32 for r in res["layer_reports"])

    def test_probe_mode_model_run(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n=48\nsteps=2\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\n"
            "mode=zipvl-probe\nprobe_recent=8\nprobe_random=8\n"
        )
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "run")
        res = strict_json(out)
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
        assert strict_json(json.dumps(res)) == res


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

    @pytest.mark.parametrize("mode", ["fixed", "dense"])
    @pytest.mark.parametrize("command", ["sweep-tau", "compare"])
    def test_non_adaptive_mode_rejected_where_it_would_be_swapped(
        self, capsys, tmp_path, command, mode
    ):
        path = tmp_path / "c.cfg"
        path.write_text(f"mode={mode}\n")
        rc, out, err = run_cli(
            capsys, "--config", str(path), command, "--workload-file", WORKLOAD
        )
        assert rc == 2
        assert f"mode {mode!r} is not adaptive" in err and out == ""

    @pytest.mark.parametrize("mode", ["fixed", "dense", "zipvl-probe"])
    def test_compare_with_modes_does_not_read_mode(self, capsys, tmp_path, mode):
        path = tmp_path / "c.cfg"
        path.write_text(f"mode={mode}\n")
        argv = ["compare", "--modes", "zipvl-exact,fixed,dense", "--workload-file", WORKLOAD]
        rc, out, _ = run_cli(capsys, "--config", str(path), *argv)
        assert rc == 0 and run_cli(capsys, *argv)[:2] == (0, out)

    def test_repeats_vary_prompt_but_not_model(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n=16\nsteps=0\nlayers=2\nd_model=32\nheads=2\nvocab_size=64\nrepeats=3\n"
        )
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "run")
        res = strict_json(out)
        assert rc == 0
        entries = res["repeats"]
        assert [e["repeat"] for e in entries] == [0, 1, 2]
        prompts = [tuple(e["prompt"]) for e in entries]
        assert len(set(prompts)) == 3  # each repeat draws a fresh prompt

    @pytest.mark.parametrize("args", [
        ("run", "--workload-file", WORKLOAD, "--repeats", "2"),
        ("--config", "{cfg}", "run"),
    ], ids=["flags", "config"])
    def test_repeats_rejected_on_a_workload_file(self, capsys, tmp_path, args):
        # every repeat would re-read the same file and report the same scores
        path = tmp_path / "c.cfg"
        path.write_text(f"workload=file\nworkload_file={WORKLOAD}\nrepeats=3\n")
        rc, out, err = run_cli(capsys, *(a.format(cfg=path) for a in args))
        assert rc == 2
        assert "repeats" in err and "workload=file" in err and out == ""

    @staticmethod
    def peaked_config(tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("workload=peaked\nn=16\nlayers=4\n")
        return str(path)

    def test_repeats_flag_and_csv_table(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "--config", self.peaked_config(tmp_path), "--format", "csv", "run",
            "--repeats", "2",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "repeat" in header
        assert len(lines) == 1 + 2 * 4  # two repeats over four layers

    def test_repeats_deterministic(self, capsys, tmp_path):
        args = ("--config", self.peaked_config(tmp_path), "run", "--repeats", "2")
        a = run_cli(capsys, *args)
        b = run_cli(capsys, *args)
        assert a == b
        strict_json(a[1])
