import math

import numpy as np
import pytest

from icalign.regime import (
    LABEL_ALIGNMENT,
    LABEL_BELOW,
    LABEL_THEOREM2,
    alignment_threshold,
    classify,
    format_report,
    interference_free_capacity,
    joint_decode_threshold,
    rate_constraints,
    theorem2_rate,
    two_user_threshold,
)

P_GRID = np.logspace(-2, 3, 61)


def test_two_user_threshold_examples():
    assert two_user_threshold(1.0) == 2.0
    assert two_user_threshold(15.0) == 16.0
    assert two_user_threshold(1e-9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        two_user_threshold(0.0)


def test_joint_decode_threshold_examples():
    assert joint_decode_threshold(2, 1.0) == 2.0
    assert joint_decode_threshold(3, 1.0) == 3.0
    assert joint_decode_threshold(3, 15.0) == 136.0
    with pytest.raises(ValueError):
        joint_decode_threshold(1, 1.0)


def test_joint_decode_reduces_to_two_user_at_K2():
    for P in P_GRID:
        assert joint_decode_threshold(2, float(P)) == pytest.approx(
            two_user_threshold(float(P)), rel=1e-12
        )


def test_alignment_threshold_examples():
    assert alignment_threshold(1.0) == 4.0
    assert alignment_threshold(3.0) == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert alignment_threshold(15.0) == pytest.approx(256.0 / 15.0, rel=1e-15)


def test_capacity_examples():
    assert interference_free_capacity(1.0) == 0.5
    assert interference_free_capacity(3.0) == 1.0
    assert interference_free_capacity(15.0) == 2.0


def test_theorem2_rate_examples():
    assert theorem2_rate(4.0) == 1.0
    assert theorem2_rate(16.0) == 2.0
    # gap to capacity is 0.5*log2(1 + 1/P): below half a bit wherever the
    # rate is positive (P > 1), approaching half a bit from below
    for P in P_GRID[P_GRID > 1]:
        gap = interference_free_capacity(float(P)) - theorem2_rate(float(P))
        assert 0 < gap < 0.5


def test_rate_constraints_examples():
    c1, c2 = rate_constraints(1.0, math.sqrt(8.0))
    assert c1 == 0.5
    assert c2 == pytest.approx(1.0, rel=1e-15)
    c1, c2 = rate_constraints(1.0, math.sqrt(2.0))
    assert c2 == pytest.approx(0.0, abs=1e-15)
    assert c2 < c1


def test_rate_constraints_cross_exactly_at_alignment_threshold():
    for P in P_GRID:
        P = float(P)
        a = math.sqrt(alignment_threshold(P))
        c1, c2 = rate_constraints(P, a)
        assert c2 == pytest.approx(c1, rel=1e-12)
        # strictly ordered on either side
        _, lo = rate_constraints(P, a * 0.999)
        _, hi = rate_constraints(P, a * 1.001)
        assert lo < c1 < hi


def test_alignment_threshold_tends_to_gdof_ratio_2():
    # INR = a^2 P at the alignment threshold: log(INR)/log(SNR) -> 2, the
    # generalized-DoF edge of the very strong regime, as P grows
    for P in [1e3, 1e6, 1e9]:
        ratio = math.log(alignment_threshold(P) * P) / math.log(P)
        assert abs(ratio - 2.0) < 10 / math.log(P)


def test_thresholds_monotone_in_P_and_K():
    for K in range(2, 7):
        vals = [joint_decode_threshold(K, float(P)) for P in P_GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for a, b in zip(P_GRID, P_GRID[1:]):
        assert two_user_threshold(float(b)) > two_user_threshold(float(a))
    # (P+1)^2/P has its minimum at P=1: increasing only from there on
    grid_hi = P_GRID[P_GRID >= 1]
    for a, b in zip(grid_hi, grid_hi[1:]):
        assert alignment_threshold(float(b)) > alignment_threshold(float(a))
    assert alignment_threshold(0.5) > alignment_threshold(1.0)
    for P in [0.5, 1.0, 10.0, 100.0]:
        vals = [joint_decode_threshold(K, P) for K in range(2, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_alignment_tighter_than_joint_decode_for_K3():
    # the two thresholds cross at P = sqrt(2): (P+1)^2/P <= (P+2)(P+1)/2
    # iff P^2 >= 2.  Above it the alignment condition is strictly weaker
    # and the advantage grows without bound.
    for P in np.linspace(1.0, 100.0, 200):
        P = float(P)
        tighter = alignment_threshold(P) <= joint_decode_threshold(3, P)
        assert tighter == (P >= math.sqrt(2) - 1e-12)
    # for K >= 4 it already holds at P = 1
    for K in (4, 5, 6):
        assert alignment_threshold(1.0) <= joint_decode_threshold(K, 1.0)


def test_classify_examples():
    rep = classify(3, 1.0, 2.0)  # a^2 = 4
    assert rep.label == LABEL_ALIGNMENT
    assert rep.rate == 0.5
    rep = classify(3, 1.0, math.sqrt(2.5))
    assert rep.label == LABEL_THEOREM2
    assert rep.rate == 0.0
    assert not rep.joint_decode_met  # threshold is 3 > 2.5
    rep = classify(3, 1.0, 1.0)
    assert rep.label == LABEL_BELOW
    assert rep.rate == 0.0


def test_classify_joint_decode_flag_grants_capacity():
    # K=2: joint decoding (= the two-user condition) reaches capacity even
    # below the alignment threshold
    rep = classify(2, 1.0, math.sqrt(2.5))
    assert rep.joint_decode_met
    assert rep.label == LABEL_THEOREM2
    assert rep.rate == interference_free_capacity(1.0)


def test_classify_thresholds_dict():
    rep = classify(3, 15.0, 12.0)
    assert rep.thresholds["two_user"] == 16.0
    assert rep.thresholds["joint_decode"] == 136.0
    assert rep.thresholds["alignment"] == pytest.approx(256.0 / 15.0)


def test_format_report_mentions_label():
    text = format_report(classify(3, 1.0, 2.0))
    assert LABEL_ALIGNMENT in text
    assert "a^2" in text
