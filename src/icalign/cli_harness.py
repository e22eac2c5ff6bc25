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

_COMMON_KEYS = ("name", "subcommand", "seed", "trials", "out")
ALLOWED_KEYS = {
    "regime": _COMMON_KEYS + ("K", "P", "a2"),
    "simulate": _COMMON_KEYS
    + ("K", "a2", "P", "Pprime", "n", "p", "R", "R_frac", "Rprime", "mode", "shift_trials"),
    "det": _COMMON_KEYS + ("K", "n_d", "n_c"),
    "lattice": _COMMON_KEYS + ("n", "p", "P", "Pprime", "R", "Rprime", "shift_trials"),
}

REQUIRED_KEYS = {
    "regime": ("K", "P", "a2"),
    "simulate": ("K", "a2", "P", "n"),
    "det": ("K", "n_d", "n_c"),
    "lattice": ("n", "P", "R"),
}

# integer keys and their least value (p must also be prime; steps is the
# --sweep STEPS bound, not a config key)
_INT_KEYS = {"seed": 0, "trials": 1, "steps": 1, "K": 2, "n": 1, "p": 2,
             "shift_trials": 1, "n_d": 1, "n_c": 0}
_FLOAT_KEYS = {"P", "a2", "Pprime", "R", "R_frac", "Rprime"}
_POSITIVE_KEYS = {"P", "Rprime"}  # the other float keys may be 0

CSV_COLUMNS = {
    "regime": ["K", "P", "a2", "two_user", "joint_decode", "alignment",
               "capacity", "theorem2_rate", "label", "rate"],
    "simulate": ["K", "a2", "P", "Pprime", "n", "p", "R", "Rprime", "mode",
                 "trials", "seed", "codebook_size", "message_count", "shortfall",
                 "intf_err_rate", "msg_err_rate",
                 "intf_ci_half_width", "msg_ci_half_width"],
    "det": ["K", "n_d", "n_c", "ratio", "zero_error"],
    "lattice": ["p", "n", "k", "gamma", "volume", "R", "Rprime",
                "codebook_size", "shortfall"],
}

SWEEP_CSV_COLUMNS = ["P", "two_user", "joint_decode_K", "alignment",
                     "capacity", "theorem2_rate"]

BLOCK_CSV_COLUMNS = ["grid_index", "trial_block", "user",
                     "intf_err_rate", "msg_err_rate", "ci_half_width"]


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
    out_dir: str


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


def _convert(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            value = int(raw)
        elif key not in _FLOAT_KEYS or (key == "Rprime" and raw == "auto"):
            return raw
        else:
            value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r}") from None
    rule = _range_rule(key, value)
    if rule:
        raise ConfigError(f"line {lineno}: {key} {rule}, got {raw!r}")
    return value


def _checked_flag(source: str, key: str, value):
    """`value`, read from flag or variable `source`, if it keeps `key`'s range rule."""
    rule = _range_rule(key, value)
    if rule:
        raise ConfigError(f"{source} {rule}, got {value!r}")
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
    sub = raw["subcommand"][0]
    if sub not in SUBCOMMANDS:
        raise ConfigError(
            f"line {raw['subcommand'][1]}: unknown subcommand {sub!r}"
        )
    allowed = ALLOWED_KEYS[sub]
    sweepable = SWEEP_KEYS[sub]

    params: dict = {}
    for key, (value, lineno) in raw.items():
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for subcommand {sub!r}")
        if "," in value:
            if key not in sweepable:
                raise ConfigError(f"line {lineno}: key {key!r} does not accept a list")
            items = [v.strip() for v in value.split(",")]
            if not all(items):
                raise ConfigError(f"line {lineno}: empty list element in {key!r}")
            params[key] = [_convert(key, v, lineno) for v in items]
        else:
            v = _convert(key, value, lineno)
            params[key] = [v] if key in sweepable else v

    for key in REQUIRED_KEYS[sub]:
        if key not in params:
            raise ConfigError(f"missing required key {key!r} for subcommand {sub!r}")
    if sub == "simulate":
        if ("R" in params) == ("R_frac" in params):
            raise ConfigError("simulate needs exactly one of 'R' or 'R_frac'")
        mode = params.get("mode", "two_stage")
        if mode not in gaussian_sim.MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        if mode == "no_interference" and any(a2 != 0 for a2 in params["a2"]):
            raise ConfigError("no_interference mode requires a2 = 0")
        if mode != "no_interference" and 0 in params["a2"]:
            raise ConfigError(f"{mode} mode requires a2 != 0")

    name = params.pop("name", "experiment")
    params.pop("subcommand")
    trials = params.pop("trials", 1000)
    seed = params.pop("seed", 0)
    out_dir = params.pop("out", ".")
    return ExperimentSpec(
        name=name, subcommand=sub, params=params,
        trials=trials, seed=seed, out_dir=out_dir,
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
    rp = params.get("Rprime", "auto")
    if rp == "auto":
        # midpoint of the rate chain; independent of a so paired sweeps
        # over a2 share one lattice
        rp = (R + c1) / 2.0
        if rp <= R:
            raise ConfigError(f"Rprime = auto needs R < 0.5*log2(1+P) = {c1!r}, "
                              f"got R = {R!r} at P = {P!r}")
    return _CodebookKey(params["n"], P, Pprime, params.get("p", 5),
                        R, rp, params.get("shift_trials", 64), seed)


def _build_codebook(key: _CodebookKey):
    shell = ShapingShell(n=key.n, P=key.P, P_prime=key.Pprime)
    lat = design_lattice(key.n, key.Rprime, shell.volume(), p=key.p, seed=key.seed)
    shift, cb = find_shift(lat, shell, key.R, trials=key.shift_trials, seed=key.seed)
    return cb


def _simulate_point(params: dict, key: _CodebookKey, spec: ExperimentSpec,
                    cb) -> tuple[dict, gaussian_sim.SimulationReport]:
    a = math.sqrt(params["a2"])
    config = gaussian_sim.ChannelConfig(K=params["K"], a=a, seed=spec.seed)
    mode = params.get("mode", "two_stage")
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


def _csv_text(columns: list[str], rows: list[dict]) -> str:
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
    out = spec.out_dir
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
    outputs = {base + ".csv": _csv_text(CSV_COLUMNS[spec.subcommand], rows)}
    summary = {
        "name": spec.name,
        "subcommand": spec.subcommand,
        "seed": spec.seed,
        "trials": spec.trials,
        "grid_size": len(points),
        "rows": [{k: row[k] for k in CSV_COLUMNS[spec.subcommand]} for row in rows],
    }
    if spec.subcommand == "simulate":
        summary["reports"] = [r.to_dict() for r in reports]
        block_rows = []
        for idx, report in enumerate(reports):
            for r in gaussian_sim.report_csv_rows(report):
                block_rows.append({"grid_index": idx, **r})
        outputs[base + "_blocks.csv"] = _csv_text(BLOCK_CSV_COLUMNS, block_rows)
    outputs[base + ".json"] = json.dumps(summary, sort_keys=True, indent=1) + "\n"
    if spec.subcommand == "lattice":  # no sweep keys: exactly one grid point
        cb = codebooks[keys[0]]
        outputs[os.path.join(out, f"{spec.name}_codebook.csv")] = codebook_csv(cb)
        outputs[os.path.join(out, f"{spec.name}_lattice.txt")] = lattice_to_text(cb.lattice)

    for path, text in outputs.items():
        _atomic_write(path, text)
    return rows, list(outputs)


def regime_sweep_rows(K: int, P_min: float, P_max: float, steps: int) -> list[dict]:
    """Threshold table on a linear P grid (columns fixed by SWEEP_CSV_COLUMNS)."""
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


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {ENV_PREFIX}{name} = {raw!r}") from None


def _add_common_flags(sp):
    sp.add_argument("--config", help="experiment config file")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)


def _load_spec(args) -> ExperimentSpec:
    with open(args.config) as fh:
        spec = parse_config(fh.read())
    if spec.subcommand != args.command:
        raise ConfigError(
            f"config subcommand {spec.subcommand!r} does not match {args.command!r}"
        )
    spec.seed = _flag_or_env(args, "seed", int, spec.seed)
    spec.trials = _flag_or_env(args, "trials", int, spec.trials)
    spec.out_dir = _flag_or_env(args, "out", str, spec.out_dir)
    return spec


def _flag_or_env(args, flag: str, cast, fallback):
    """The --flag value, else ICALIGN_<FLAG> from the environment, else fallback.

    A value from the flag or the environment must keep the range rule of
    the config key of the same name.
    """
    value = getattr(args, flag)
    if value is not None:
        return _checked_flag(f"--{flag}", flag, value)
    value = _env_default(flag.upper(), cast, None)
    if value is not None:
        return _checked_flag(ENV_PREFIX + flag.upper(), flag, value)
    return fallback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icalign",
        description="Lattice interference-alignment workbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("regime", help="threshold calculators")
    _add_common_flags(sp)
    sp.add_argument("--K", type=int, default=3)
    sp.add_argument("--P", type=float)
    sp.add_argument("--a2", type=float)
    sp.add_argument("--sweep", nargs=3, metavar=("P_MIN", "P_MAX", "STEPS"))

    sp = subs.add_parser("simulate", help="Monte Carlo channel simulation")
    _add_common_flags(sp)

    sp = subs.add_parser("det", help="deterministic bit-level channel")
    _add_common_flags(sp)
    sp.add_argument("--K", type=int)
    sp.add_argument("--nd", type=int)
    sp.add_argument("--nc", type=int)

    sp = subs.add_parser("lattice", help="design a lattice codebook, export CSV")
    _add_common_flags(sp)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "regime" and args.sweep:
        try:
            p_min, p_max, steps = float(args.sweep[0]), float(args.sweep[1]), int(args.sweep[2])
        except ValueError:
            raise ConfigError(f"cannot parse --sweep {' '.join(args.sweep)}") from None
        rows = regime_sweep_rows(_checked_flag("--K", "K", args.K),
                                 _checked_flag("--sweep P_MIN", "P", p_min),
                                 _checked_flag("--sweep P_MAX", "P", p_max),
                                 _checked_flag("--sweep STEPS", "steps", steps))
        text = _csv_text(SWEEP_CSV_COLUMNS, rows)
        out = args.out or _env_default("OUT", str, None)
        if out:
            path = os.path.join(out, "regime_sweep.csv")
            _atomic_write(path, text)
            print(path)
        else:
            print(text, end="")
        return 0

    if args.command == "regime" and not args.config:
        if args.P is None or args.a2 is None:
            raise ConfigError("regime needs --sweep, --config, or both --P and --a2")
        report = regime.classify(_checked_flag("--K", "K", args.K),
                                 _checked_flag("--P", "P", args.P),
                                 math.sqrt(_checked_flag("--a2", "a2", args.a2)))
        print(regime.format_report(report))
        return 0

    if args.command == "det" and not args.config:
        if args.K is None or args.nd is None or args.nc is None:
            raise ConfigError("det needs --config or all of --K --nd --nc")
        cfg = det_channel.DetChannelConfig(K=_checked_flag("--K", "K", args.K),
                                           n_d=_checked_flag("--nd", "n_d", args.nd),
                                           n_c=_checked_flag("--nc", "n_c", args.nc))
        print(det_channel.level_diagram(cfg))
        print(f"zero-error at full rate: {det_channel.det_capacity_check(cfg)}")
        return 0

    if not args.config:
        raise ConfigError(f"{args.command} requires --config")
    spec = _load_spec(args)
    _, written = run_experiment(spec)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
