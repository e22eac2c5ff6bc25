"""Experiment orchestration: flat key-value configs, seeded sweeps, CSV output.

A config describes one experiment: a target subcommand plus a parameter
grid.  Grid points run serially in a fixed lexicographic order and rows
are written in grid order, so a spec maps to byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import det_channel, gaussian_sim, regime
from .lattice_geometry import ShapingShell, codebook_csv, find_shift
from .zp_codes import design_lattice, fundamental_volume, is_prime, lattice_to_text

ENV_PREFIX = "ICALIGN_"

SUBCOMMANDS = ("regime", "simulate", "det", "lattice")

# Keys that may carry comma-separated lists, in grid (outer..inner) order.
SWEEP_KEYS = {
    "regime": ("K", "P", "a2"),
    "simulate": ("a2", "P", "n", "R_frac"),
    "det": ("K", "n_d", "n_c"),
    "lattice": (),
}

# Each subcommand's keys: a key maps to its default, to REQUIRED, or to
# None when it has no constant default (_codebook_key computes Pprime and,
# from R_frac, R; simulate takes exactly one of R and R_frac).
REQUIRED = object()
_SPEC_DEFAULTS = {"name": "experiment", "seed": 0, "trials": 1000, "out": "."}
_CODEBOOK_DEFAULTS = {"Pprime": None, "p": 5, "Rprime": "auto", "shift_trials": 64}
KEYS = {
    "regime": {"K": REQUIRED, "P": REQUIRED, "a2": REQUIRED},
    "simulate": {"K": REQUIRED, "a2": REQUIRED, "P": REQUIRED, "n": REQUIRED,
                 "R": None, "R_frac": None, **_CODEBOOK_DEFAULTS, "mode": "two_stage"},
    "det": {"K": REQUIRED, "n_d": REQUIRED, "n_c": REQUIRED},
    "lattice": {"n": REQUIRED, "P": REQUIRED, "R": REQUIRED, **_CODEBOOK_DEFAULTS},
}

# integer keys and their least value (p must also be prime)
_INT_KEYS = {"seed": 0, "trials": 1, "K": 2, "n": 1, "p": 2, "shift_trials": 1,
             "n_d": 1, "n_c": 0}
_FLOAT_KEYS = {"P", "a2", "Pprime", "R", "R_frac", "Rprime"}
_POSITIVE_KEYS = {"P", "Rprime"}  # the other float keys may be 0


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment config."""


class ExperimentError(RuntimeError):
    """A grid point failed; message carries the grid coordinates."""


@dataclass
class ExperimentSpec:
    name: str
    subcommand: str
    params: dict
    trials: int
    seed: int
    out: str


def _range_rule(key: str, value) -> str | None:
    """The rule `value` breaks as a value of `key`, or None if it keeps them all."""
    if key in _INT_KEYS:
        if value < _INT_KEYS[key]:
            return f"must be >= {_INT_KEYS[key]}"
        return "must be prime" if key == "p" and not is_prime(value) else None
    if key in _FLOAT_KEYS:
        if not math.isfinite(value) or value < 0 or (value == 0 and key in _POSITIVE_KEYS):
            return "must be finite and " + ("> 0" if key in _POSITIVE_KEYS else ">= 0")
    return None


def _convert(key: str, raw: str, label: str):
    """`raw` parsed and range-checked as a value of config key `key`.

    `label` names where it came from (`line 3: K`, `--K` or `ICALIGN_SEED`)
    and starts every error message.
    """
    if key == "name" and (raw in ("", ".", "..") or os.path.basename(raw) != raw):
        # the name prefixes every output file, which must stay inside `out`
        raise ConfigError(f"{label} must be a file name with no path separator "
                          f"and not '.' or '..', got {raw!r}")
    try:
        if key in _INT_KEYS:
            value = int(raw)
        elif key not in _FLOAT_KEYS or (key == "Rprime" and raw == "auto"):
            return raw
        else:
            value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {label} = {raw!r}") from None
    rule = _range_rule(key, value)
    if rule:
        raise ConfigError(f"{label} {rule}, got {raw!r}")
    return value


def parse_config(text: str) -> ExperimentSpec:
    """Parse `key = value` lines (lists comma-separated, # comments allowed)."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    if "subcommand" not in raw:
        raise ConfigError("missing required key 'subcommand'")
    sub, sub_line = raw.pop("subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"line {sub_line}: unknown subcommand {sub!r}")
    keys = {**_SPEC_DEFAULTS, **KEYS[sub]}
    sweepable = SWEEP_KEYS[sub]

    params: dict = {}
    for key, (value, lineno) in raw.items():
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for subcommand {sub!r}")
        label = f"line {lineno}: {key}"
        if "," in value:
            if key not in sweepable:
                raise ConfigError(f"line {lineno}: key {key!r} does not accept a list")
            items = [v.strip() for v in value.split(",")]
            if not all(items):
                raise ConfigError(f"line {lineno}: empty list element in {key!r}")
            params[key] = [_convert(key, v, label) for v in items]
        else:
            v = _convert(key, value, label)
            params[key] = [v] if key in sweepable else v

    for key, default in keys.items():
        if key not in params:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} for subcommand {sub!r}")
            if default is not None:
                params[key] = default
    if sub == "simulate":
        if ("R" in params) == ("R_frac" in params):
            raise ConfigError("simulate needs exactly one of 'R' or 'R_frac'")
        mode = params["mode"]
        if mode not in gaussian_sim.MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        if mode == "no_interference" and any(a2 != 0 for a2 in params["a2"]):
            raise ConfigError("no_interference mode requires a2 = 0")
        if mode != "no_interference" and 0 in params["a2"]:
            raise ConfigError(f"{mode} mode requires a2 != 0")

    return ExperimentSpec(
        name=params.pop("name"), subcommand=sub, trials=params.pop("trials"),
        seed=params.pop("seed"), out=params.pop("out"), params=params,
    )


def grid_points(spec: ExperimentSpec) -> list[dict]:
    """Cartesian product over the sweep keys, lexicographic in grid order."""
    points = [dict(spec.params)]
    for key in SWEEP_KEYS[spec.subcommand]:
        if key not in spec.params:
            continue
        values = spec.params[key]
        points = [dict(pt, **{key: v}) for pt in points for v in values]
    return points


class _CodebookKey(NamedTuple):
    """Everything a codebook build depends on, defaults and rates resolved."""

    n: int
    P: float
    Pprime: float
    p: int
    R: float
    Rprime: float
    shift_trials: int
    seed: int


def _codebook_key(params: dict, seed: int) -> _CodebookKey:
    P = params["P"]
    Pprime = params.get("Pprime", P / 4.0)
    if Pprime >= P:
        raise ConfigError(f"the shell needs Pprime < P, got Pprime = {Pprime!r} at P = {P!r}")
    c1 = regime.interference_free_capacity(P)
    R = params["R"] if "R" in params else params["R_frac"] * c1
    rp = params["Rprime"]
    if rp == "auto":
        # midpoint of the rate chain; independent of a so paired sweeps
        # over a2 share one lattice
        rp = (R + c1) / 2.0
        if rp <= R:
            raise ConfigError(f"Rprime = auto needs R < 0.5*log2(1+P) = {c1!r}, "
                              f"got R = {R!r} at P = {P!r}")
    return _CodebookKey(params["n"], P, Pprime, params["p"], R, rp, params["shift_trials"], seed)


def _build_codebook(key: _CodebookKey):
    shell = ShapingShell(n=key.n, P=key.P, P_prime=key.Pprime)
    lat = design_lattice(key.n, key.Rprime, shell.volume(), p=key.p, seed=key.seed)
    shift, cb = find_shift(lat, shell, key.R, trials=key.shift_trials, seed=key.seed)
    return cb


def _simulate_point(params: dict, key: _CodebookKey, spec: ExperimentSpec,
                    cb) -> tuple[dict, gaussian_sim.SimulationReport]:
    a = math.sqrt(params["a2"])
    config = gaussian_sim.ChannelConfig(K=params["K"], a=a, seed=spec.seed)
    mode = params["mode"]
    report = gaussian_sim.run_monte_carlo(config, cb, spec.trials, mode=mode)
    ci = gaussian_sim._ci_half_width
    row = {
        "K": params["K"], "a2": params["a2"], "P": key.P,
        "Pprime": key.Pprime, "n": key.n,
        "p": key.p, "R": key.R, "Rprime": cb.R_prime,
        "mode": mode, "trials": spec.trials, "seed": spec.seed,
        "codebook_size": len(cb),
        "message_count": cb.message_count,
        "shortfall": cb.shortfall,
        "intf_err_rate": float(np.mean(report.intf_error_rate)),
        "msg_err_rate": float(np.mean(report.msg_error_rate)),
        "intf_ci_half_width": float(np.mean(ci(report.intf_errors, spec.trials))),
        "msg_ci_half_width": float(np.mean(ci(report.msg_errors, spec.trials))),
    }
    return row, report


def _regime_point(params: dict) -> dict:
    rep = regime.classify(params["K"], params["P"], math.sqrt(params["a2"]))
    return {
        "K": params["K"], "P": params["P"], "a2": params["a2"], **rep.thresholds,
        "capacity": regime.interference_free_capacity(params["P"]),
        "theorem2_rate": regime.theorem2_rate(params["P"]),
        "label": rep.label, "rate": rep.rate,
    }


def _det_point(params: dict) -> dict:
    cfg = det_channel.DetChannelConfig(K=params["K"], n_d=params["n_d"], n_c=params["n_c"])
    return {
        "K": cfg.K, "n_d": cfg.n_d, "n_c": cfg.n_c,
        "ratio": cfg.gdof_ratio,
        "zero_error": det_channel.det_capacity_check(cfg),
    }


def _lattice_row(key: _CodebookKey, cb) -> dict:
    lat = cb.lattice
    return {
        "p": lat.p, "n": lat.n, "k": lat.k, "gamma": lat.gamma,
        "volume": fundamental_volume(lat), "R": key.R, "Rprime": cb.R_prime,
        "codebook_size": len(cb), "shortfall": cb.shortfall,
    }


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows: list[dict]) -> str:
    """CSV of `rows` under the first row's keys: each row builder states its columns."""
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def run_experiment(spec: ExperimentSpec, threads: int = 1):
    """Execute the grid; write CSV (+ summary JSON) atomically in grid order.

    Grid points run serially.  `threads` is ignored: it stays only because
    perfbench/run.py passes it, until ROADMAP item 1 drops it there.
    Returns (rows, written_paths).  Failures raise ExperimentError naming
    the grid point; a ConfigError (a shell with Pprime >= P, or Rprime = auto
    with no midpoint) names it too.
    """
    points = grid_points(spec)
    if not points:
        raise ConfigError("empty parameter grid")
    out = spec.out
    base = os.path.join(out, f"{spec.name}_{spec.subcommand}")
    reports: list = [None] * len(points)

    def at_point(idx: int, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            cls = ConfigError if isinstance(exc, ConfigError) else ExperimentError
            raise cls(f"grid point {idx} {points[idx]}: {exc}") from exc

    # each distinct codebook is built once, before any grid point runs
    keys = [at_point(idx, _codebook_key, params, spec.seed) for idx, params in enumerate(points)
            if spec.subcommand in ("simulate", "lattice")]
    codebooks = {}
    for idx, key in enumerate(keys):
        if key not in codebooks:
            codebooks[key] = at_point(idx, _build_codebook, key)

    def point_row(idx: int) -> dict:
        params = points[idx]
        if spec.subcommand == "regime":
            return _regime_point(params)
        if spec.subcommand == "det":
            return _det_point(params)
        key = keys[idx]
        if spec.subcommand == "lattice":
            return _lattice_row(key, codebooks[key])
        row, reports[idx] = _simulate_point(params, key, spec, codebooks[key])
        return row

    rows = [at_point(idx, point_row, idx) for idx in range(len(points))]

    # every output, in write order; all go through _atomic_write below
    outputs = {base + ".csv": _csv_text(rows)}
    summary = {
        "name": spec.name,
        "subcommand": spec.subcommand,
        "seed": spec.seed,
        "trials": spec.trials,
        "grid_size": len(points),
        "rows": rows,
    }
    if spec.subcommand == "simulate":
        summary["reports"] = [r.to_dict() for r in reports]
        block_rows = []
        for idx, report in enumerate(reports):
            for r in gaussian_sim.report_csv_rows(report):
                block_rows.append({"grid_index": idx, **r})
        outputs[base + "_blocks.csv"] = _csv_text(block_rows)
    outputs[base + ".json"] = json.dumps(summary, sort_keys=True, indent=1) + "\n"
    if spec.subcommand == "lattice":  # no sweep keys: exactly one grid point
        cb = codebooks[keys[0]]
        outputs[os.path.join(out, f"{spec.name}_codebook.csv")] = codebook_csv(cb)
        outputs[os.path.join(out, f"{spec.name}_lattice.txt")] = lattice_to_text(cb.lattice)

    for path, text in outputs.items():
        _atomic_write(path, text)
    return rows, list(outputs)


def regime_sweep_rows(K: int, P_min: float, P_max: float, steps: int) -> list[dict]:
    """Threshold table on a linear P grid, one row per P."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    Ps = np.linspace(P_min, P_max, steps) if steps > 1 else np.array([P_min])
    rows = []
    for P in Ps:
        P = float(P)
        rows.append({
            "P": P,
            "two_user": regime.two_user_threshold(P),
            "joint_decode_K": regime.joint_decode_threshold(K, P),
            "alignment": regime.alignment_threshold(P),
            "capacity": regime.interference_free_capacity(P),
            "theorem2_rate": regime.theorem2_rate(P),
        })
    return rows


# ---------------------------------------------------------------------------
# command line


# The flags each form of a subcommand reads.  `--config`, else `--sweep`,
# picks its form, and a subcommand given neither runs its point form.  The
# parser offers each subcommand the flags of its forms, and a flag the
# chosen form does not read exits 2 rather than being ignored.
_CONFIG_FORM = ("config", "out", "seed", "trials")
FORMS = {
    "regime": {"config": _CONFIG_FORM, "point": ("K", "P", "a2"), "sweep": ("sweep", "K", "out")},
    "simulate": {"config": _CONFIG_FORM},
    "det": {"config": _CONFIG_FORM, "point": ("K", "nd", "nc")},
    "lattice": {"config": _CONFIG_FORM},
}
_FLAG_KEYS = {"nd": "n_d", "nc": "n_c"}  # flags named unlike their config key
_POINT_NEEDS = {"regime": "regime needs --sweep, --config, or both --P and --a2",
                "det": "det needs --config or all of --K --nd --nc"}
_HELP = {"regime": "threshold calculators", "simulate": "Monte Carlo channel simulation",
         "det": "deterministic bit-level channel",
         "lattice": "design a lattice codebook, export CSV",
         "config": "experiment config file", "out": "output directory"}


def _env_default(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icalign",
        description="Lattice interference-alignment workbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for sub, forms in FORMS.items():
        # a flag not given is left out of the namespace, so each form sees what was given
        sp = subs.add_parser(sub, help=_HELP[sub], argument_default=argparse.SUPPRESS)
        for flag in dict.fromkeys(f for flags in forms.values() for f in flags):
            sweep = {"nargs": 3, "metavar": ("P_MIN", "P_MAX", "STEPS")} if flag == "sweep" else {}
            sp.add_argument(f"--{flag}", help=_HELP.get(flag), **sweep)

    args = parser.parse_args(argv)
    try:
        return _dispatch(vars(args))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_form(command: str, given: dict) -> tuple[str, dict]:
    """The form `given` flags pick, and each flag it reads, converted as its config key.

    A flag that overrides a spec key (`--out`, `--seed`, `--trials`) falls
    back to ICALIGN_<FLAG>; regime's flag forms default `--K` to 3.
    """
    forms = FORMS[command]
    form = next((f for f in ("config", "sweep") if f in given), "point")
    if command == "regime" and form != "config":
        given.setdefault("K", "3")
    if form not in forms or (form == "point" and not set(forms[form]) <= set(given)):
        raise ConfigError(_POINT_NEEDS.get(command, f"{command} requires --config"))
    ignored = [f"--{f}" for f in given if f not in forms[form]]
    if ignored:
        raise ConfigError(f"{command}'s {form} form reads only "
                          f"{', '.join('--' + f for f in forms[form])}, not {', '.join(ignored)}")
    values = {}
    for flag in forms[form]:
        raw, label = given.get(flag), f"--{flag}"
        if raw is None and flag in _SPEC_DEFAULTS:
            raw, label = _env_default(flag.upper()), ENV_PREFIX + flag.upper()
        if raw is not None:
            values[flag] = _convert(_FLAG_KEYS.get(flag, flag), raw, label)
    return form, values


def _dispatch(given: dict) -> int:
    command = given.pop("command")
    form, v = _read_form(command, given)
    if form == "sweep":
        p_min, p_max = (_convert("P", raw, f"--sweep {bound}")
                        for raw, bound in zip(v["sweep"], ("P_MIN", "P_MAX")))
        try:
            steps = int(v["sweep"][2])  # not a config key: its own check
        except ValueError:
            raise ConfigError(f"cannot parse --sweep {' '.join(v['sweep'])}") from None
        if steps < 1:
            raise ConfigError(f"--sweep STEPS must be >= 1, got {steps!r}")
        text = _csv_text(regime_sweep_rows(v["K"], p_min, p_max, steps))
        if v.get("out"):
            path = os.path.join(v["out"], "regime_sweep.csv")
            _atomic_write(path, text)
            print(path)
        else:
            print(text, end="")
        return 0

    if form == "point" and command == "regime":
        print(regime.format_report(regime.classify(v["K"], v["P"], math.sqrt(v["a2"]))))
        return 0

    if form == "point":  # det
        cfg = det_channel.DetChannelConfig(K=v["K"], n_d=v["nd"], n_c=v["nc"])
        zero_error = det_channel.det_capacity_check(cfg)  # may refuse before anything prints
        print(det_channel.level_diagram(cfg))
        print(f"zero-error at full rate: {zero_error}")
        return 0

    with open(v.pop("config")) as fh:
        spec = parse_config(fh.read())
    if spec.subcommand != command:
        raise ConfigError(f"config subcommand {spec.subcommand!r} does not match {command!r}")
    for key, value in v.items():  # --out, --seed, --trials or their variables
        setattr(spec, key, value)
    _, written = run_experiment(spec)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
