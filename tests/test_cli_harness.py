import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from icalign.cli_harness import (
    ConfigError,
    grid_points,
    main,
    parse_config,
    regime_sweep_rows,
    run_experiment,
)
from icalign.regime import classify

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL_SIM = """
name = mini
subcommand = simulate
K = 3
a2 = 4
P = 1
n = 4
p = 3
R_frac = 0.8
trials = 40
seed = 7
"""


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def header(path):
    with open(path) as fh:
        return fh.readline().strip()


# -------------------------------------------------------------- parse_config


def test_parse_minimal_config():
    spec = parse_config(MINIMAL_SIM)
    assert spec.name == "mini"
    assert spec.subcommand == "simulate"
    assert spec.trials == 40
    assert spec.seed == 7
    assert spec.params["K"] == 3
    assert spec.params["a2"] == [4.0]  # sweepable keys normalize to lists


def test_parse_unknown_key_names_line():
    bad = MINIMAL_SIM + "foo = 1\n"
    with pytest.raises(ConfigError, match=r"line 12: unknown key 'foo'"):
        parse_config(bad)


def test_parse_list_sweep():
    spec = parse_config(MINIMAL_SIM.replace("a2 = 4", "a2 = 2, 4, 8"))
    assert spec.params["a2"] == [2.0, 4.0, 8.0]
    assert len(grid_points(spec)) == 3


def test_parse_rejects_duplicate_and_malformed():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_SIM + "K = 4\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("subcommand = regime\nnonsense line\n")


def test_parse_rejects_list_on_scalar_key():
    with pytest.raises(ConfigError, match="does not accept a list"):
        parse_config(MINIMAL_SIM + "Pprime = 0.1, 0.2\n")


def test_parse_requires_exactly_one_rate_key():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(MINIMAL_SIM + "R = 0.4\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(MINIMAL_SIM.replace("R_frac = 0.8\n", ""))


def test_parse_validates_subcommand_and_mode():
    with pytest.raises(ConfigError, match="unknown subcommand"):
        parse_config("subcommand = dance\nK = 3\n")
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(MINIMAL_SIM + "mode = telepathy\n")
    with pytest.raises(ConfigError, match="requires a2 = 0"):
        parse_config(MINIMAL_SIM + "mode = no_interference\n")
    with pytest.raises(ConfigError, match="two_stage mode requires a2 != 0"):
        parse_config(MINIMAL_SIM.replace("a2 = 4", "a2 = 4, 0"))
    with pytest.raises(ConfigError, match="lattice_only mode requires a2 != 0"):
        parse_config(MINIMAL_SIM.replace("a2 = 4", "a2 = 0") + "mode = lattice_only\n")


def test_parse_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'n_c'"):
        parse_config("subcommand = det\nK = 3\nn_d = 1\n")


# ---------------------------------------------------------------- grid order


def test_grid_lexicographic_order():
    spec = parse_config(
        "subcommand = det\nK = 2, 3, 4\nn_d = 1, 2\nn_c = 2\n"
    )
    pts = grid_points(spec)
    assert len(pts) == 6
    assert [(p["K"], p["n_d"]) for p in pts] == [
        (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)
    ]


# ------------------------------------------------------------ run_experiment


def test_regime_experiment_matches_classify(tmp_path):
    spec = parse_config(
        f"name = r\nsubcommand = regime\nK = 3\nP = 1\na2 = 4\nout = {tmp_path}\n"
    )
    rows, written = run_experiment(spec)
    assert len(rows) == 1
    rep = classify(3, 1.0, 2.0)
    assert rows[0]["label"] == rep.label
    assert rows[0]["rate"] == rep.rate
    assert rows[0]["alignment"] == rep.thresholds["alignment"]
    csv_path = [p for p in written if p.endswith(".csv")][0]
    assert header(csv_path) == \
        "K,P,a2,two_user,joint_decode,alignment,capacity,theorem2_rate,label,rate"


def test_det_experiment_grid(tmp_path):
    spec = parse_config(
        f"name = d\nsubcommand = det\nK = 3\nn_d = 1, 2\nn_c = 0, 2, 4\nout = {tmp_path}\n"
    )
    rows, written = run_experiment(spec)
    assert len(rows) == 6
    by_key = {(r["n_d"], r["n_c"]): r["zero_error"] for r in rows}
    assert by_key[(1, 2)] and by_key[(2, 4)] and by_key[(1, 0)]
    assert not by_key[(2, 2)]
    assert header(written[0]) == "K,n_d,n_c,ratio,zero_error"


def test_simulate_experiment_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = MINIMAL_SIM.replace("a2 = 4", "a2 = 4, 16")
    for out in (out1, out2):
        spec = parse_config(cfg + f"out = {out}\n")
        run_experiment(spec)
    files = sorted(os.listdir(out1))
    assert files == sorted(os.listdir(out2))
    for f in files:
        assert sha(out1 / f) == sha(out2 / f), f


def test_simulate_csv_and_summary_content(tmp_path):
    spec = parse_config(MINIMAL_SIM + f"out = {tmp_path}\n")
    rows, written = run_experiment(spec)
    csv_path = [p for p in written if p.endswith("simulate.csv")][0]
    assert header(csv_path) == (
        "K,a2,P,Pprime,n,p,R,Rprime,mode,trials,seed,codebook_size,message_count,"
        "shortfall,intf_err_rate,msg_err_rate,intf_ci_half_width,msg_ci_half_width")
    blocks = [p for p in written if p.endswith("_blocks.csv")][0]
    assert header(blocks) == (
        "grid_index,trial_block,user,intf_err_rate,msg_err_rate,ci_half_width"
    )
    summary = json.loads(Path([p for p in written if p.endswith(".json")][0]).read_text())
    assert summary["grid_size"] == 1
    assert summary["reports"][0]["trials"] == 40


def test_lattice_experiment_writes_codebook(tmp_path):
    spec = parse_config(
        f"name = lat\nsubcommand = lattice\nn = 4\np = 3\nP = 2\nR = 0.4\n"
        f"seed = 5\nout = {tmp_path}\n"
    )
    rows, written = run_experiment(spec)
    assert rows[0]["codebook_size"] >= 1
    main_csv = [p for p in written if p.endswith("lat_lattice.csv")][0]
    assert header(main_csv) == \
        "p,n,k,gamma,volume,R,Rprime,codebook_size,shortfall"
    cb_csv = [p for p in written if "codebook" in p][0]
    assert header(cb_csv).startswith("index,x0")
    lat_txt = [p for p in written if p.endswith("lattice.txt")][0]
    from icalign.zp_codes import lattice_from_text

    lat = lattice_from_text(Path(lat_txt).read_text())
    assert lat.n == 4 and lat.p == 3


def test_experiment_error_names_grid_point(tmp_path):
    from icalign.cli_harness import ExperimentError

    spec = parse_config(
        f"subcommand = det\nK = 5\nn_d = 3\nn_c = 6\nout = {tmp_path}\n"
    )
    spec.params["n_d"] = [30]  # forces the exhaustion cap
    with pytest.raises(ExperimentError, match="grid point 0"):
        run_experiment(spec)


# --------------------------------------------------------- regime_sweep_rows


def test_plot_data_alignment_below_joint_decode():
    # re-evaluate the formulas over the sweep: above the P = sqrt(2)
    # crossover the alignment threshold always sits below joint decoding
    rows = regime_sweep_rows(3, 2.0, 100.0, 99)
    for row in rows:
        assert row["alignment"] < row["joint_decode_K"]
    edge = regime_sweep_rows(3, 1.0, 1.0, 1)[0]
    assert edge["alignment"] > edge["joint_decode_K"]  # the known P=1 exception


# --------------------------------------------------------------------- CLI


def test_cli_regime_point(capsys):
    assert main(["regime", "--K", "3", "--P", "15", "--a2", "136"]) == 0
    out = capsys.readouterr().out
    assert "alignment-very-strong" in out
    assert "136" in out


def test_cli_regime_sweep_stdout(capsys):
    assert main(["regime", "--sweep", "1", "3", "3", "--K", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "P,two_user,joint_decode_K,alignment,capacity,theorem2_rate"
    assert len(lines) == 4


def test_cli_det_point(capsys):
    assert main(["det", "--K", "3", "--nd", "1", "--nc", "2"]) == 0
    out = capsys.readouterr().out
    assert "receiver 1" in out
    assert "zero-error at full rate: True" in out


def test_cli_simulate_config(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "mini_simulate.csv" in out
    text = (tmp_path / "mini_simulate.csv").read_text()
    assert ",20," in text  # trials override took effect


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("subcommand = simulate\nfoo = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_config_subcommand_mismatch(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("subcommand = regime\nK = 3\nP = 1\na2 = 4\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_env_overrides(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    outdir = tmp_path / "envout"
    monkeypatch.setenv("ICALIGN_OUT", str(outdir))
    monkeypatch.setenv("ICALIGN_TRIALS", "25")
    assert main(["simulate", "--config", str(cfg)]) == 0
    text = (outdir / "mini_simulate.csv").read_text()
    assert ",25," in text


@pytest.mark.parametrize("name", ["SEED", "TRIALS"])
def test_env_non_integer_exits_2_naming_variable(tmp_path, monkeypatch, capsys, name):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    monkeypatch.setenv(f"ICALIGN_{name}", "abc")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"ICALIGN_{name}" in capsys.readouterr().err


def test_threads_flag_is_unknown_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "mini_simulate.csv").exists()


@pytest.mark.parametrize("line", [
    "P = nan", "P = inf", "P = 0", "P = -1", "a2 = -4", "a2 = 4, -inf",
    "R = -0.1", "R_frac = nan", "Pprime = -0.5", "Rprime = 0", "Rprime = -1",
])
def test_parse_rejects_nonfinite_and_out_of_range_floats(line):
    key = line.split()[0]
    drop = ("R =", "R_frac =") if key in ("R", "R_frac") else (f"{key} =",)
    lines = [ln for ln in MINIMAL_SIM.strip().splitlines() if not ln.startswith(drop)]
    text = "\n".join(lines + [line]) + "\n"
    with pytest.raises(ConfigError, match=rf"line {len(lines) + 1}: {key} must be"):
        parse_config(text)


def test_parse_accepts_zero_a2_pprime_and_auto_rprime():
    spec = parse_config(MINIMAL_SIM.replace("a2 = 4", "a2 = 0")
                        + "mode = no_interference\nPprime = 0\nRprime = auto\n")
    assert spec.params["a2"] == [0.0]
    assert spec.params["Pprime"] == 0.0
    assert spec.params["Rprime"] == "auto"


def test_lattice_codebook_csv_written_atomically(tmp_path, monkeypatch):
    from icalign import cli_harness
    from icalign.lattice_geometry import codebook_csv

    built = []
    find_shift = cli_harness.find_shift

    def recording_find_shift(*args, **kwargs):
        shift, cb = find_shift(*args, **kwargs)
        built.append(cb)
        return shift, cb

    monkeypatch.setattr(cli_harness, "find_shift", recording_find_shift)
    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (renamed.append(dst), replace(src, dst)))
    out = tmp_path / "out"
    spec = parse_config(
        f"name = lat\nsubcommand = lattice\nn = 4\np = 3\nP = 2\nR = 0.4\n"
        f"seed = 5\nout = {out}\n"
    )
    _, written = run_experiment(spec)
    assert len(built) == 1
    data = (out / "lat_codebook.csv").read_bytes()
    assert data == codebook_csv(built[0]).encode()
    assert b"\r\n" in data
    assert str(out / "lat_codebook.csv") in written
    assert str(out / "lat_codebook.csv") in renamed  # temp file + rename
    assert not [f for f in os.listdir(out) if f.startswith(".tmp_")]


@pytest.mark.parametrize("line, rule", [
    ("K = 1", "K must be >= 2"),
    ("n = 0", "n must be >= 1"),
    ("p = 4", "p must be prime"),
    ("p = 1", "p must be >= 2"),
    ("trials = 0", "trials must be >= 1"),
    ("seed = -3", "seed must be >= 0"),
    ("shift_trials = 0", "shift_trials must be >= 1"),
])
def test_parse_rejects_out_of_range_integers(line, rule):
    key = line.split()[0]
    lines = [ln for ln in MINIMAL_SIM.strip().splitlines() if not ln.startswith(f"{key} =")]
    text = "\n".join(lines + [line]) + "\n"
    with pytest.raises(ConfigError, match=rf"line {len(lines) + 1}: {rule}"):
        parse_config(text)


@pytest.mark.parametrize("line, rule", [
    ("n_d = 0", "n_d must be >= 1"),
    ("n_c = -1", "n_c must be >= 0"),
    ("K = 3, 1", "K must be >= 2"),
])
def test_parse_rejects_out_of_range_det_integers(line, rule):
    key = line.split()[0]
    lines = [ln for ln in ("subcommand = det", "K = 3", "n_d = 1", "n_c = 2")
             if not ln.startswith(f"{key} =")]
    with pytest.raises(ConfigError, match=rf"line {len(lines) + 1}: {rule}"):
        parse_config("\n".join(lines + [line]) + "\n")


def test_parse_accepts_integer_lower_bounds():
    spec = parse_config(MINIMAL_SIM.replace("K = 3", "K = 2").replace("seed = 7", "seed = 0")
                        .replace("trials = 40", "trials = 1").replace("p = 3", "p = 2")
                        .replace("n = 4", "n = 1") + "shift_trials = 1\n")
    assert (spec.params["K"], spec.params["n"], spec.params["p"]) == (2, [1], 2)
    assert (spec.trials, spec.seed, spec.params["shift_trials"]) == (1, 0, 1)
    det = parse_config("subcommand = det\nK = 2\nn_d = 1\nn_c = 0\n")
    assert (det.params["n_d"], det.params["n_c"]) == ([1], [0])


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-3")])
def test_trials_and_seed_flags_out_of_range_exit_2(tmp_path, capsys, flag, value):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), flag, value]) == 2
    assert f"{flag} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "mini_simulate.csv").exists()


@pytest.mark.parametrize("name, value", [("TRIALS", "0"), ("SEED", "-3")])
def test_trials_and_seed_env_out_of_range_exit_2(tmp_path, monkeypatch, capsys, name, value):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM)
    monkeypatch.setenv(f"ICALIGN_{name}", value)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"ICALIGN_{name} must be >= " in capsys.readouterr().err


def test_config_out_of_range_integer_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM.replace("K = 3", "K = 1"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "K must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--P", "15", "--a2", "-4"], "--a2 must be finite and >= 0"),
    (["--P", "15", "--a2", "nan"], "--a2 must be finite and >= 0"),
    (["--P", "nan", "--a2", "4"], "--P must be finite and > 0"),
    (["--P", "inf", "--a2", "4"], "--P must be finite and > 0"),
    (["--P", "0", "--a2", "4"], "--P must be finite and > 0"),
    (["--P", "15", "--a2", "4", "--K", "1"], "--K must be >= 2"),
    (["--sweep", "1", "3", "3", "--K", "1"], "--K must be >= 2"),
])
def test_regime_flags_out_of_range_exit_2(capsys, argv, message):
    assert main(["regime", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--K", "1", "--nd", "1", "--nc", "2"], "--K must be >= 2"),
    (["--K", "3", "--nd", "0", "--nc", "2"], "--nd must be >= 1"),
    (["--K", "3", "--nd", "1", "--nc", "-1"], "--nc must be >= 0"),
])
def test_det_flags_out_of_range_exit_2(capsys, argv, message):
    assert main(["det", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sweep, message", [
    (["nan", "3", "3"], "--sweep P_MIN must be finite and > 0"),
    (["-1", "3", "3"], "--sweep P_MIN must be finite and > 0"),
    (["1", "inf", "2"], "--sweep P_MAX must be finite and > 0"),
    (["1", "3", "0"], "--sweep STEPS must be >= 1"),
    (["1", "x", "3"], "cannot parse --sweep P_MAX = 'x'"),
    (["1", "3", "2.5"], "cannot parse --sweep 1 3 2.5"),
])
def test_regime_sweep_out_of_range_exits_2(tmp_path, capsys, sweep, message):
    assert main(["regime", "--sweep", *sweep, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("keys, point, P, R", [
    ({"R_frac": "1.0"}, 0, "1.0", "0.5"),  # R = capacity
    ({"R_frac": None, "R": "0.6", "P": "3, 1"}, 1, "1.0", "0.6"),  # above it at P = 1 only
])
def test_auto_rprime_without_midpoint_exits_2(tmp_path, capsys, keys, point, P, R):
    lines = [ln for ln in MINIMAL_SIM.strip().splitlines() if ln.split(" =")[0] not in keys]
    lines += [f"{k} = {v}" for k, v in keys.items() if v is not None]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"grid point {point} " in err
    assert "Rprime = auto needs R < 0.5*log2(1+P)" in err
    assert f"got R = {R} at P = {P}" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["two_stage", "lattice_only"])
def test_zero_a2_with_a_stage1_mode_exits_2(tmp_path, capsys, mode):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(MINIMAL_SIM.replace("a2 = 4", "a2 = 4, 0") + f"mode = {mode}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{mode} mode requires a2 != 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys, point, Pprime, P", [
    ({"Pprime": "1"}, 0, "1.0", "1.0"),  # Pprime = P
    ({"Pprime": "2", "P": "3, 1"}, 1, "2.0", "1.0"),  # above P = 1 only
])
def test_pprime_not_below_p_exits_2(tmp_path, capsys, keys, point, Pprime, P):
    lines = [ln for ln in MINIMAL_SIM.strip().splitlines() if ln.split(" =")[0] not in keys]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"grid point {point} " in err
    assert f"the shell needs Pprime < P, got Pprime = {Pprime} at P = {P}" in err
    assert not out.exists()


def test_readme_lists_exactly_the_flags_and_variables_the_cli_reads(tmp_path, monkeypatch,
                                                                     capsys):
    from icalign import cli_harness

    readme = README.read_text()
    start = readme.index("## Command line")
    cli_section = readme[start:readme.index("\n## ", start)]

    flags = set()
    for sub in cli_harness.SUBCOMMANDS:
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        flags |= set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--\w+", cli_section)) == flags

    read = []
    env_default = cli_harness._env_default

    def recording_env_default(name, *args):
        read.append(name)
        return env_default(name, *args)

    monkeypatch.setattr(cli_harness, "_env_default", recording_env_default)
    cfg = tmp_path / "det.cfg"
    cfg.write_text(f"subcommand = det\nK = 2\nn_d = 1\nn_c = 0\nout = {tmp_path}\n")
    assert main(["det", "--config", str(cfg)]) == 0
    assert main(["regime", "--sweep", "1", "2", "2"]) == 0
    assert set(re.findall(r"ICALIGN_(\w+)", readme)) == set(read)


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "sub/dir", "/abs"])
def test_name_that_is_not_a_plain_file_name_exits_2(tmp_path, capsys, name):
    # the name prefixes every output file; none may land outside `out`
    cfg = tmp_path / "det.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"subcommand = det\nK = 2\nn_d = 1\nn_c = 0\nname = {name}\nout = {out}\n")
    assert main(["det", "--config", str(cfg)]) == 2
    assert f"line 5: name must be a file name with no path separator and not '.' or '..', " \
        f"got {name!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["det.cfg"]


def test_readme_key_table_is_the_key_table():
    from icalign import cli_harness

    def keys_and_defaults(text):
        # `key` (default text) pairs; the text runs to the first ';' or ')'
        return dict(re.findall(r"`(\w+)`(?: \(([^;)]*))?", text))

    def documents(listed, defaults):
        # a constant default appears as written; a computed one (None) by its rule
        return all(listed[k] == str(d) if d is not None else listed[k] for k, d in defaults.items())

    readme = README.read_text()
    start = readme.index("Every subcommand takes")
    common = keys_and_defaults(readme[start:readme.index("\n\n", start)].split(". ")[0])
    assert common.keys() == cli_harness._SPEC_DEFAULTS.keys()
    assert documents(common, cli_harness._SPEC_DEFAULTS)

    rows = re.findall(r"^\| `(\w+)` +\|([^|]*)\|([^|]*)\|([^|]*)\|$", readme[start:], re.M)
    assert [row[0] for row in rows] == list(cli_harness.SUBCOMMANDS)
    required = cli_harness.REQUIRED
    for sub, needed, optional, swept in rows:
        table = cli_harness.KEYS[sub]
        needed, optional = re.findall(r"`(\w+)`", needed), keys_and_defaults(optional)
        assert sorted(needed + list(optional)) == sorted(table), sub
        assert [k for k in needed if table[k] is required] == \
            [k for k, d in table.items() if d is required], sub
        # simulate's "one of `R`/`R_frac`": keys with no default, exactly one given
        assert all(table[k] is None for k in needed if table[k] is not required), sub
        assert documents(optional, {k: table[k] for k in optional}), sub
        assert re.findall(r"`(\w+)`", swept) == list(cli_harness.SWEEP_KEYS[sub]), sub


# ------------------------------------------------------------ command forms

FORM_CONFIGS = {  # one valid config per subcommand; output lands in the working directory
    "regime": "subcommand = regime\nK = 3\nP = 1\na2 = 4\n",
    "simulate": MINIMAL_SIM,
    "det": "subcommand = det\nK = 3\nn_d = 1\nn_c = 2\n",
    "lattice": "subcommand = lattice\nn = 4\np = 3\nP = 2\nR = 0.4\n",
}
# the arguments that complete each form, and a valid value for every flag
FORM_ARGV = {"config": ["--config", "c.cfg"], "sweep": ["--sweep", "1", "2", "2"],
             "point": {"regime": ["--P", "1", "--a2", "4"],
                       "det": ["--K", "3", "--nd", "1", "--nc", "2"]}}
FLAG_VALUES = {"config": ["c.cfg"], "out": ["out"], "seed": ["5"], "trials": ["9"],
               "sweep": ["1", "2", "2"], "K": ["3"], "P": ["1"], "a2": ["4"], "nd": ["1"],
               "nc": ["2"]}


def test_forms_table():
    from icalign.cli_harness import FORMS

    config = ("config", "out", "seed", "trials")
    assert FORMS == {
        "regime": {"config": config, "point": ("K", "P", "a2"), "sweep": ("sweep", "K", "out")},
        "simulate": {"config": config},
        "det": {"config": config, "point": ("K", "nd", "nc")},
        "lattice": {"config": config},
    }


def _form_argv(sub, form):
    argv = FORM_ARGV[form]
    return [sub] + (argv[sub] if form == "point" else argv)


def _ignored_flag_cases():
    from icalign.cli_harness import FORMS

    for sub, forms in FORMS.items():
        offered = dict.fromkeys(f for flags in forms.values() for f in flags)
        for form, flags in forms.items():
            for flag in offered:
                if flag not in flags:
                    yield pytest.param(sub, form, flag, id=f"{sub}-{form}---{flag}")


@pytest.mark.parametrize("sub, form, flag", list(_ignored_flag_cases()))
def test_flag_the_form_does_not_read_exits_2(tmp_path, monkeypatch, capsys, sub, form, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text(FORM_CONFIGS[sub])
    assert main(_form_argv(sub, form) + [f"--{flag}", *FLAG_VALUES[flag]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # `--config`, else `--sweep`, picks its own form, which then refuses this form's flags
    chosen = next(f for f in ("config", "sweep", form) if f in (form, flag))
    assert f"{sub}'s {chosen} form reads only " in captured.err
    assert re.search(rf"--{flag}\b", captured.err)
    assert os.listdir(tmp_path) == ["c.cfg"]


@pytest.mark.parametrize("sub, form", [(sub, form) for sub in FORM_CONFIGS
                                       for form in ("config", "sweep", "point")
                                       if form == "config" or (sub, form) in
                                       {("regime", "sweep"), ("regime", "point"),
                                        ("det", "point")}])
def test_each_form_runs_with_its_own_flags(tmp_path, monkeypatch, capsys, sub, form):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text(FORM_CONFIGS[sub])
    assert main(_form_argv(sub, form)) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv, ignored", [
    (["regime", "--config", "r.cfg", "--K", "9", "--P", "50"], "--K, --P"),
    (["regime", "--K", "3", "--P", "1", "--a2", "4", "--out", "d", "--seed", "5",
      "--trials", "9"], "--out, --seed, --trials"),
    (["det", "--config", "d.cfg", "--nd", "5", "--nc", "7"], "--nd, --nc"),
    (["regime", "--sweep", "1", "2", "2", "--P", "99", "--a2", "7"], "--P, --a2"),
    (["det", "--K", "3", "--nd", "1", "--nc", "2", "--out", "d"], "--out"),
])
def test_flags_that_used_to_be_ignored_exit_2(tmp_path, monkeypatch, capsys, argv, ignored):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.cfg").write_text(FORM_CONFIGS["regime"])
    (tmp_path / "d.cfg").write_text(FORM_CONFIGS["det"])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(f"not {ignored}")
    assert sorted(os.listdir(tmp_path)) == ["d.cfg", "r.cfg"]


@pytest.mark.parametrize("argv, message", [
    (["regime"], "regime needs --sweep, --config, or both --P and --a2"),
    (["regime", "--a2", "4"], "regime needs --sweep, --config, or both --P and --a2"),
    (["regime", "--P", "1", "--out", "d"], "regime needs --sweep, --config, or both --P and --a2"),
    (["det"], "det needs --config or all of --K --nd --nc"),
    (["det", "--K", "3", "--nd", "1"], "det needs --config or all of --K --nd --nc"),
    (["det", "--nc", "2", "--seed", "3"], "det needs --config or all of --K --nd --nc"),
    (["simulate"], "simulate requires --config"),
    (["lattice", "--out", "d"], "lattice requires --config"),
])
def test_incomplete_form_keeps_its_needs_message(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


def test_regime_flag_forms_default_k_to_3(capsys):
    for argv in (["--P", "15", "--a2", "136"], ["--sweep", "1", "3", "3"]):
        assert main(["regime", *argv]) == 0
        default = capsys.readouterr().out
        assert main(["regime", *argv, "--K", "3"]) == 0
        assert capsys.readouterr().out == default
        assert main(["regime", *argv, "--K", "5"]) == 0
        assert capsys.readouterr().out != default


def test_variables_apply_only_where_their_flag_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("OUT", "SEED", "TRIALS"):
        monkeypatch.setenv(f"ICALIGN_{name}", "not a value")
    assert main(["regime", "--P", "1", "--a2", "4"]) == 0
    assert main(["det", "--K", "3", "--nd", "1", "--nc", "2"]) == 0
    monkeypatch.setenv("ICALIGN_OUT", "swept")
    assert main(["regime", "--sweep", "1", "2", "2"]) == 0  # reads --out, not --seed or --trials
    assert os.listdir(tmp_path / "swept") == ["regime_sweep.csv"]
    capsys.readouterr()
    (tmp_path / "c.cfg").write_text(FORM_CONFIGS["det"])
    assert main(["det", "--config", "c.cfg"]) == 2
    assert "cannot parse ICALIGN_SEED = 'not a value'" in capsys.readouterr().err


def test_det_point_past_the_rank_cap_prints_nothing_and_exits_1(capsys):
    assert main(["det", "--K", "3", "--nd", "2", "--nc", str(10**7)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cells exceeds cap" in captured.err


def test_readme_forms_table_is_the_forms_table():
    from icalign.cli_harness import FORMS

    readme = README.read_text()
    start = readme.index("| subcommand | form |")
    rows = re.findall(r"^\|([^|]*)\|([^|]*)\|([^|]*)\|$", readme[start:readme.index("\n\n", start)],
                      re.M)[2:]
    listed = {}
    for subs, form, flags in rows:
        for sub in re.findall(r"`(\w+)`", subs):
            listed.setdefault(sub, {})[form.strip(" `-")] = tuple(re.findall(r"--(\w+)", flags))
    assert listed == FORMS
