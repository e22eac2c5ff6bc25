"""Property tests for config parse -> grid -> CSV.

Hypothesis runs derandomized and without an example database, so a rerun
draws the same examples and no failing example is stored between runs.
"""

import csv
import itertools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icalign.cli_harness import (
    CSV_COLUMNS,
    SWEEP_KEYS,
    ConfigError,
    grid_points,
    parse_config,
    run_experiment,
)
from icalign.zp_codes import is_prime

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# valid values per subcommand; sweep keys take lists, the others one value
VALID = {
    "regime": {"K": st.integers(2, 6), "P": st.floats(1e-6, 1e6), "a2": st.floats(0.0, 1e12)},
    "det": {"K": st.integers(2, 3), "n_d": st.integers(1, 2), "n_c": st.integers(0, 4)},
    "simulate": {"K": st.integers(2, 5), "a2": st.floats(0.1, 100.0), "P": st.floats(1e-3, 1e3),
                 "n": st.integers(1, 12), "R_frac": st.floats(0.0, 1.0)},
}


@st.composite
def configs(draw, subs=tuple(VALID)):
    """(config text, {key: value list}) for a valid config, keys in random line order."""
    sub = draw(st.sampled_from(subs))
    values = {key: draw(st.lists(strat, min_size=1, max_size=3))
              if key in SWEEP_KEYS[sub] else [draw(strat)]
              for key, strat in VALID[sub].items()}
    keys = draw(st.permutations(list(values)))
    lines = [f"subcommand = {sub}"] + [f"{k} = {', '.join(map(repr, values[k]))}" for k in keys]
    return "\n".join(lines) + "\n", values


@REPRODUCIBLE
@given(configs())
def test_grid_is_product_of_lists_in_sweep_key_order(config):
    text, values = config
    spec = parse_config(text)
    sweep = SWEEP_KEYS[spec.subcommand]
    points = grid_points(spec)
    expected = list(itertools.product(*(values[k] for k in sweep)))
    assert len(points) == len(expected)
    assert [tuple(pt[k] for k in sweep) for pt in points] == expected


def _read_back(text: str, value):
    if isinstance(value, bool):
        return {"true": True, "false": False}[text]
    return type(value)(text)


@REPRODUCIBLE
@given(configs(subs=("regime", "det")))
def test_csv_reads_back_equal_to_rows(config):
    text, _ = config
    with tempfile.TemporaryDirectory() as out:
        spec = parse_config(text + f"out = {out}\n")
        rows, written = run_experiment(spec)
        with open(written[0], newline="") as fh:
            table = list(csv.reader(fh))
    columns = CSV_COLUMNS[spec.subcommand]
    assert table[0] == columns
    assert len(table) == 1 + len(rows)
    for row, cells in zip(rows, table[1:]):
        assert [_read_back(cell, row[c]) for c, cell in zip(columns, cells)] == \
            [row[c] for c in columns]


INT_MIN = {"seed": 0, "trials": 1, "K": 2, "n": 1, "p": 2, "shift_trials": 1}
POSITIVE = {"P", "Rprime"}
NONNEGATIVE = {"a2", "Pprime", "R", "R_frac"}
BASE_SIM = {"K": "3", "a2": "4", "P": "1", "n": "4", "R_frac": "0.8"}


def _bad_values(key):
    if key in INT_MIN:
        bad = st.integers(INT_MIN[key] - 1000, INT_MIN[key] - 1)
        if key == "p":
            bad = st.one_of(bad, st.integers(2, 200).filter(lambda v: not is_prime(v)))
        return bad.map(str)
    nonfinite = st.sampled_from(["nan", "inf", "-inf"])
    negative = st.floats(max_value=-1e-300, allow_infinity=False).map(repr)
    return st.one_of(nonfinite, negative, st.just("0.0")) if key in POSITIVE else \
        st.one_of(nonfinite, negative)


@st.composite
def bad_configs(draw):
    """(simulate config text with one out-of-range value, its key, its line number)."""
    key = draw(st.sampled_from(sorted(set(INT_MIN) | POSITIVE | NONNEGATIVE)))
    value = draw(_bad_values(key))
    if key in SWEEP_KEYS["simulate"]:  # the bad value may sit anywhere in a list
        good = draw(st.lists(st.sampled_from(["0.5", "2"]), max_size=2))
        at = draw(st.integers(0, len(good)))
        value = ", ".join(good[:at] + [value] + good[at:])
    lines = [f"{k} = {v}" for k, v in BASE_SIM.items() if k != key]
    at = draw(st.integers(0, len(lines)))
    lines = ["subcommand = simulate"] + lines[:at] + [f"{key} = {value}"] + lines[at:]
    return "\n".join(lines) + "\n", key, at + 2


@REPRODUCIBLE
@given(bad_configs())
def test_out_of_range_value_names_its_line(config):
    text, key, lineno = config
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {key} must be "):
        parse_config(text)
