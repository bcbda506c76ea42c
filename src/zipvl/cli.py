"""Command-line front end for sparse-attention experiments.

Subcommands:
  run           one experiment (model or score workload) -> full report
  sweep-tau     repeat the run across a list of tau values -> summary rows
  compare       adaptive vs ratio-matched fixed vs dense on one workload
  gen-workload  write a synthetic score workload CSV

Configuration comes from an optional key=value file (--config) overlaid by
the flags, each of which sets the config key its argparse dest names;
unknown keys are errors. Configs check themselves when built:
ExperimentConfig its cross-key rules, taus and modes, engine's ModelConfig
and SparsityPolicy their values. The config holds its ModelConfig and its
SparsityPolicy, whose fields are config keys too, and build_config builds
all three, so in every command and on every workload a bad key exits 2
before any model is built or workload read. All output is deterministic:
keys are sorted, floats use shortest round-trip repr (a workload CSV's
scores nine significant digits), and nothing records time or environment.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import engine, metrics, numkit, workload
from .errors import (
    BoundsError,
    ConfigError,
    DegenerateMaskError,
    DomainError,
    EmptySequenceError,
    FormatError,
    OrderingError,
    ShapeError,
    VocabError,
    ZipvlError,
)

EXIT_CODES = (
    (ConfigError, 2),
    (ShapeError, 3),
    (DomainError, 4),
    (DegenerateMaskError, 5),
    (EmptySequenceError, 6),
    (VocabError, 7),
    (OrderingError, 8),
    (BoundsError, 9),
    (FormatError, 10),
    (ZipvlError, 11),
)

# seed stream tags for deriving independent sub-seeds from the global seed
_MODEL_TAG = 1
_WORKLOAD_TAG = 2
_PROMPT_TAG = 3

WORKLOAD_SOURCES = ("model", *workload.KINDS, "file")


@dataclass
class ExperimentConfig:
    # its fields are config keys too, but seed: __post_init__ derives that from the config's
    model: engine.ModelConfig = engine.ModelConfig(
        layers=4, heads=4, d_model=64, vocab_size=256, max_seq=512, seed=0
    )
    # workload
    workload: str = "model"
    n: int = 128
    steps: int = 16
    concentration: float = 8.0
    workload_file: str = ""
    # its fields are config keys too: SparsityPolicy's defaults, except the mode
    policy: engine.SparsityPolicy = engine.SparsityPolicy(mode="zipvl-exact")
    # shared
    seed: int = 1234
    repeats: int = 1
    taus: str = "0.5,0.8,0.9,0.95,0.975,0.99,1.0"
    modes: str = ""  # compare's mode list; empty means adaptive,fixed,dense

    def __post_init__(self) -> None:
        """Reject a config whose keys disagree, whenever one is built.

        workload must be a known source, set to file exactly when
        workload_file is, concentration > 0, repeats >= 1, seed >= 0, and
        taus a nonempty comma-separated float list, parsed into sweep_taus.
        modes, parsed into compare_modes, is empty or at least 2 distinct
        known modes. The model's seed is derived from seed.
        """
        if self.workload not in WORKLOAD_SOURCES:
            raise ConfigError(f"workload must be one of {WORKLOAD_SOURCES}")
        if self.workload == "file" and not self.workload_file:
            raise ConfigError("workload=file needs workload_file=<path>")
        if self.workload_file and self.workload != "file":
            raise ConfigError(f"workload_file needs workload=file, not workload={self.workload}")
        if not self.concentration > 0:  # NaN too
            raise ConfigError(f"concentration={self.concentration} must be positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        self.model = dataclasses.replace(self.model, seed=numkit.derive_seed(self.seed, _MODEL_TAG))
        self.sweep_taus = tuple(
            _coerce("taus", float, tau) for tau in self.taus.split(",") if tau.strip()
        )
        if not self.sweep_taus:
            raise ConfigError("taus is empty")
        self.compare_modes = tuple(m.strip() for m in self.modes.split(",") if m.strip())
        if len(self.compare_modes) == 1:
            raise ConfigError("compare needs at least 2 modes")
        for i, name in enumerate(self.compare_modes):
            if name in self.compare_modes[:i]:
                raise ConfigError(f"mode {name!r} repeated in modes")
            dataclasses.replace(self.policy, mode=name)  # SparsityPolicy rejects an unknown mode


def _key_fields(f: dataclasses.Field) -> tuple:
    """The config keys f stands for: itself, or its default config's fields but the model's seed."""
    if not dataclasses.is_dataclass(f.default):
        return (f,)
    return tuple(g for g in dataclasses.fields(f.default) if g.name != "seed")


def config_keys() -> dict[str, type]:
    """Every config key and its type, in order: a nested config's keys in its field's place."""
    types = {"int": int, "float": float, "str": str, "bool": bool}
    fields = dataclasses.fields(ExperimentConfig)
    return {g.name: types[g.type] for f in fields for g in _key_fields(f)}


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse key=value lines ('#' comments allowed) into raw string values.

    A line ends at "\n" only; a "\r" before it is stripped with the rest of
    the line's surrounding whitespace.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """The defaults, overlaid by the raw config values, then by the overrides that are not None.

    An overriding workload_file implies workload=file unless the overrides
    name a workload. The model and policy keys go to the config's model
    and policy. The config, its model and its policy check themselves when
    built.
    """
    kinds = config_keys()
    values = {}
    for key, value in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, kinds[key], value)
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    if overrides.get("workload_file"):
        overrides.setdefault("workload", "file")
    values.update(overrides)
    for f in dataclasses.fields(ExperimentConfig):
        if dataclasses.is_dataclass(f.default):
            knobs = {g.name: values.pop(g.name) for g in _key_fields(f) if g.name in values}
            values[f.name] = dataclasses.replace(f.default, **knobs)
    return ExperimentConfig(**values)


def _adaptive_mode(cfg: ExperimentConfig, command: str) -> str:
    """The adaptive mode sweep-tau and compare without modes run: the policy's, never swapped."""
    mode = cfg.policy.mode
    if mode not in engine.ADAPTIVE_MODES:
        raise ConfigError(
            f"mode {mode!r} is not adaptive; {command} runs one of {engine.ADAPTIVE_MODES}"
        )
    return mode


def _prompt_tokens(cfg: ExperimentConfig, repeat: int = 0) -> np.ndarray:
    rng = numkit.make_rng(numkit.derive_seed(cfg.seed, _PROMPT_TAG, repeat))
    return rng.integers(0, cfg.model.vocab_size, size=cfg.n, dtype=np.int64)


def _build_subject(
    cfg: ExperimentConfig, repeat: int = 0
) -> engine.TinyTransformer | np.ndarray:
    """What a command runs its policies on: the model, or repeat's score array.

    The model depends only on the global seed, and a file workload only on
    the file, so a command builds its subject once and hands it to every
    run_experiment call; only a generated workload changes with the repeat.
    Negative steps are rejected here on every workload, before the file is
    read or the workload generated, and on the model a prompt plus its
    decode steps longer than max_seq (engine.check_length), before any
    prefill, by every command, although only run decodes.
    """
    engine.check_steps(cfg.steps)
    if cfg.workload == "file":
        try:
            with open(cfg.workload_file, "r", newline="", encoding="utf-8") as fh:
                return workload.read_workload_csv(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read workload file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"workload file is not UTF-8: {exc}") from exc
    if cfg.workload != "model":
        return workload.generate_workload(
            cfg.workload, cfg.n, cfg.model.layers, cfg.concentration,
            numkit.derive_seed(cfg.seed, _WORKLOAD_TAG, repeat),
        )
    if cfg.n < 0:
        raise ConfigError(f"n={cfg.n} must be >= 0")
    engine.check_length(cfg.n, cfg.steps, cfg.model.max_seq)
    return engine.init_model(cfg.model)


def run_experiment(
    cfg: ExperimentConfig,
    subject: engine.TinyTransformer | np.ndarray,
    policy: engine.SparsityPolicy,
    repeat: int = 0,
    steps: int = 0,
):
    """Run one experiment; returns (report, prefill_logits_or_None, prompt).

    `subject` comes from _build_subject(cfg, repeat). A model workload
    prefills a prompt drawn for the repeat index once, then decodes `steps`
    tokens.
    """
    if cfg.workload == "model":
        prompt = _prompt_tokens(cfg, repeat)
        prefilled = engine.prefill(subject, prompt, policy)
        _, report = engine.decode(subject, prompt, prefilled, steps, policy)
        return report, prefilled[0], [int(t) for t in prompt]
    reports = workload.evaluate_score_workload(subject, policy)
    report = metrics.build_run_report(
        policy=policy, layer_reports=reports, d_head=1, heads=1, generated=[]
    )
    return report, None, []


def _summary(report: metrics.RunReport) -> dict:
    rm = [r.retained_mass for r in report.layer_reports]
    return {
        "mean_ratio": report.mean_ratio,
        "flops_reduction": report.flops_reduction,
        "kv_reduction": report.kv_reduction,
        "min_retained_mass": min(rm),
        "retained_mass": rm,
        "ratio_profile": [r.ratio for r in report.layer_reports],
    }


def _single_repeat(cfg: ExperimentConfig, command: str) -> None:
    if cfg.repeats > 1:
        raise ConfigError(f"repeats applies to run only, not {command}")


def cmd_run(cfg: ExperimentConfig) -> dict:
    """One report per repeat; a single repeat is returned bare, without a repeat key.

    A workload file gives every repeat the same scores, so it takes one repeat.
    """
    if cfg.workload == "file" and cfg.repeats > 1:
        raise ConfigError("repeats needs a model or generated workload, not workload=file")
    subject = _build_subject(cfg)
    reports, entries = [], []
    for repeat in range(cfg.repeats):
        if repeat and cfg.workload in workload.KINDS:
            subject = _build_subject(cfg, repeat)
        report, _, prompt = run_experiment(cfg, subject, cfg.policy, repeat, cfg.steps)
        reports.append(report)
        entries.append({**dataclasses.asdict(report), "prompt": prompt, "repeat": repeat})
    # goes to stderr so stdout stays a pure, byte-stable artifact
    means = " ".join(
        f"{key}={float(np.mean([getattr(r, key) for r in reports]))!r}"
        for key in ("mean_ratio", "flops_reduction", "kv_reduction")
    )
    print(f"summary: {means}", file=sys.stderr)
    if cfg.repeats == 1:
        del entries[0]["repeat"]
        return entries[0]
    return {"repeats": entries}


def cmd_sweep_tau(cfg: ExperimentConfig) -> list[dict]:
    _single_repeat(cfg, "sweep-tau")
    mode = _adaptive_mode(cfg, "sweep-tau")
    policies = [dataclasses.replace(cfg.policy, mode=mode, tau=tau) for tau in cfg.sweep_taus]
    subject = _build_subject(cfg)
    keys = ("mean_ratio", "flops_reduction", "kv_reduction", "min_retained_mass")
    rows = []
    for policy in policies:
        s = _summary(run_experiment(cfg, subject, policy)[0])
        rows.append({"tau": policy.tau, **{key: s[key] for key in keys}})
    return rows


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Run several policies on one workload and tabulate them side by side.

    A dense baseline is always computed for logit deltas. A fixed entry is
    ratio-matched to the first adaptive entry's mean ratio (falling back to
    the configured fixed_ratio if no adaptive mode is listed), so the
    comparison isolates how the budget is allocated across layers.
    """
    names = cfg.compare_modes or (_adaptive_mode(cfg, "compare without modes"), "fixed", "dense")
    # dense runs first, as the logit baseline
    policies = {"dense": dataclasses.replace(cfg.policy, mode="dense")}
    for name in names:
        policies[name] = dataclasses.replace(cfg.policy, mode=name)
    if "fixed" in policies:  # last, once the adaptive ratio it matches is known
        policies["fixed"] = policies.pop("fixed")
    _single_repeat(cfg, "compare")

    subject = _build_subject(cfg)
    adaptive = next((m for m in names if m in engine.ADAPTIVE_MODES), None)
    runs: dict = {}
    for name, policy in policies.items():
        if name == "fixed" and adaptive is not None:
            policy = dataclasses.replace(policy, fixed_ratio=runs[adaptive][0].mean_ratio)
        runs[name] = run_experiment(cfg, subject, policy)[:2]
    logits_dense = runs["dense"][1]

    def delta(logits):
        if logits is None or logits_dense is None:
            return None
        return float(np.max(np.abs(logits.astype(np.float64) - logits_dense.astype(np.float64))))

    tau = cfg.policy.tau
    entries = []
    for name in names:
        report, logits = runs[name]
        entry = {"mode": name, **_summary(report)}
        entry["logit_delta_vs_dense"] = delta(logits)
        entry["layers_below_tau"] = sum(1 for r in report.layer_reports if r.retained_mass < tau)
        entries.append(entry)

    below_tau = {e["mode"]: e["layers_below_tau"] for e in entries}
    out = {"tau": tau, "modes": entries}
    if "fixed" in names:
        out["fixed_ratio_used"] = runs["fixed"][0].policy["fixed_ratio"]
        out["fixed_layers_below_tau"] = below_tau["fixed"]
    if adaptive is not None:
        out["adaptive_layers_below_tau"] = below_tau[adaptive]
    return out


def cmd_gen_workload(cfg: ExperimentConfig) -> np.ndarray:
    """The generated (layers, n) scores; main writes them as workload CSV."""
    if cfg.workload not in workload.KINDS:
        kinds = " or ".join(f"workload={kind}" for kind in workload.KINDS)
        raise ConfigError(f"gen-workload needs {kinds}")
    _single_repeat(cfg, "gen-workload")
    return _build_subject(cfg)


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_rows(obj) -> list[dict]:
    """The rows of a run, sweep-tau or compare result's CSV table."""
    if isinstance(obj, list):  # sweep: one row per tau
        return obj
    if "repeats" in obj:  # repeated run: per-layer rows with a repeat column
        return [{"repeat": e["repeat"], **lr} for e in obj["repeats"] for lr in e["layer_reports"]]
    if "layer_reports" in obj:  # run: one row per layer
        return obj["layer_reports"]
    return obj["modes"]  # compare: one row per mode


def _emit_csv(obj) -> str:
    """Flatten the command result into deterministic CSV rows."""

    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, list):
            return ";".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        return v

    rows = _table_rows(obj)
    cols = sorted(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([fmt(row[c]) for c in cols])
    return buf.getvalue()


def _write_out(write, out_path: str | None) -> None:
    """Call write(fh) on the file at out_path, or on stdout without one.

    A path that cannot be opened for writing is a ConfigError.
    """
    if not out_path:
        write(sys.stdout)
        return
    try:
        fh = open(out_path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with fh:
        write(fh)


def _exit_code_doc() -> str:
    lines = ["exit codes:", "  0   success"]
    for exc, code in EXIT_CODES:
        lines.append(f"  {code:<3} {exc.__name__}")
    return "\n".join(lines)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipvl",
        description="Adaptive sparse-attention experiments on a tiny deterministic transformer.",
        epilog=_exit_code_doc(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and report it")
    run.add_argument("--mode", choices=engine.MODES)
    run.add_argument("--tau", type=float)
    run.add_argument("--repeats", type=int)
    run.add_argument("--workload-file", dest="workload_file")
    sweep = sub.add_parser("sweep-tau", help="sweep tau and summarize each run")
    sweep.add_argument("--taus", help="comma-separated tau list")
    sweep.add_argument("--workload-file", dest="workload_file")
    comp = sub.add_parser("compare", help="adaptive vs ratio-matched fixed vs dense")
    comp.add_argument("--tau", type=float)
    comp.add_argument("--modes", help="comma-separated mode list")
    comp.add_argument("--workload-file", dest="workload_file")
    gen = sub.add_parser("gen-workload", help="write a synthetic score workload CSV")
    gen.add_argument("--kind", dest="workload", choices=workload.KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--layers", type=int)
    gen.add_argument("--concentration", type=float)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            raw = parse_config_text(text)
        keys = config_keys()
        cfg = build_config(raw, {k: v for k, v in vars(args).items() if k in keys})
        # looked up per call, so a wrapper set on a cmd_* attribute sees it
        command = {
            "run": cmd_run,
            "sweep-tau": cmd_sweep_tau,
            "compare": cmd_compare,
            "gen-workload": cmd_gen_workload,
        }[args.command]
        res = command(cfg)
        if isinstance(res, np.ndarray):  # gen-workload's scores, streamed out layer by layer
            _write_out(lambda fh: workload.write_workload_csv(fh, res), args.out)
        else:
            text = {"json": _emit_json, "csv": _emit_csv}[args.format](res)
            _write_out(lambda fh: fh.write(text), args.out)
    except ZipvlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
