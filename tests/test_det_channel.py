import math
import time

import numpy as np
import pytest
from oracles import all_inputs, collision_capacity_check, exhaustive_capacity_check

from icalign.det_channel import (
    RANK_CAP_CELLS,
    DetChannelConfig,
    RegimeViolation,
    det_capacity_check,
    det_decode,
    det_output,
    level_diagram,
)
from icalign.zp_codes import EnumerationTooLarge, rank_mod_p


# ----------------------------------------------------------------- model


def test_output_paper_shape_example():
    # K=3, n_d=1, n_c=2, inputs (1,0,1): receiver 1 sees its own bit at
    # level 0 and the interferer sum 0^1 at level 1
    cfg = DetChannelConfig(K=3, n_d=1, n_c=2)
    y = det_output(cfg, [[1], [0], [1]])
    assert y[0].tolist() == [1, 1]
    assert y[1].tolist() == [0, 0]  # own 0, sum 1^1 = 0
    assert y[2].tolist() == [1, 1]


def test_output_all_zero():
    cfg = DetChannelConfig(K=3, n_d=2, n_c=4)
    y = det_output(cfg, np.zeros((3, 2), dtype=int))
    assert not y.any()


def test_output_collision_destroys_own_bit():
    cfg = DetChannelConfig(K=3, n_d=1, n_c=1)
    y = det_output(cfg, [[1], [1], [0]])
    assert y[0].tolist() == [0]  # 1 ^ 1 ^ 0


def test_output_validates_shape_and_bits():
    cfg = DetChannelConfig(K=2, n_d=2, n_c=4)
    with pytest.raises(ValueError):
        det_output(cfg, [[1, 0, 0], [0, 1, 1]])
    with pytest.raises(ValueError):
        det_output(cfg, [[2, 0], [0, 1]])


def test_det_output_is_gf2_linear():
    # the premise of the rank test in det_capacity_check
    rng = np.random.default_rng(13)
    for K in range(2, 7):
        for n_d in range(1, 5):
            for n_c in range(0, 12):
                cfg = DetChannelConfig(K=K, n_d=n_d, n_c=n_c)
                assert not det_output(cfg, np.zeros((K, n_d), dtype=int)).any()
                for _ in range(4):
                    x, x2 = rng.integers(0, 2, size=(2, K, n_d))
                    assert np.array_equal(det_output(cfg, x ^ x2),
                                          det_output(cfg, x) ^ det_output(cfg, x2)), (K, n_d, n_c)


def test_no_interference_baseline():
    cfg = DetChannelConfig(K=3, n_d=2, n_c=0)
    x = [[1, 0], [0, 1], [1, 1]]
    y = det_output(cfg, x)
    assert y.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert cfg.very_strong


# ----------------------------------------------------------------- decode


def test_decode_inverts_output_example():
    cfg = DetChannelConfig(K=3, n_d=1, n_c=2)
    y = det_output(cfg, [[1], [0], [1]])
    own, sums = det_decode(cfg, y[0])
    assert own.tolist() == [1]
    assert sums.tolist() == [1]


def test_decode_exhaustive_nd2_nc4():
    cfg = DetChannelConfig(K=3, n_d=2, n_c=4)
    for x in all_inputs(cfg):
        y = det_output(cfg, x)
        for j in range(3):
            own, sums = det_decode(cfg, y[j])
            assert own.tolist() == x[j].tolist()
            expected_sum = (x.sum(axis=0) - x[j]) % 2
            assert sums.tolist() == expected_sum.tolist()


def test_decode_rejects_overlapping_levels():
    cfg = DetChannelConfig(K=3, n_d=1, n_c=1)
    with pytest.raises(RegimeViolation):
        det_decode(cfg, np.array([0]))


# --------------------------------------------------------- capacity check


def test_capacity_check_examples():
    assert det_capacity_check(DetChannelConfig(K=3, n_d=1, n_c=2))
    assert det_capacity_check(DetChannelConfig(K=5, n_d=2, n_c=4))
    assert not det_capacity_check(DetChannelConfig(K=3, n_d=2, n_c=3))  # ratio 1.5


def test_capacity_check_cap():
    # 25 input bits, one past EXHAUSTION_CAP_BITS = 24
    with pytest.raises(EnumerationTooLarge, match="25 bits exceeds cap 24"):
        det_capacity_check(DetChannelConfig(K=5, n_d=5, n_c=10))


def test_capacity_check_bounds_the_ranked_matrix():
    # the rank test's cost grows with q = max(n_d, n_c): a huge n_c is
    # refused before any matrix is built, and the largest allowed one runs
    assert det_capacity_check(DetChannelConfig(K=3, n_d=2, n_c=RANK_CAP_CELLS // 6))
    t0 = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match="10000000 x 6 cells exceeds cap 65536"):
        det_capacity_check(DetChannelConfig(K=3, n_d=2, n_c=10**7))
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(EnumerationTooLarge, match="cells exceeds cap"):
        det_capacity_check(DetChannelConfig(K=3, n_d=2, n_c=RANK_CAP_CELLS // 6 + 1))


def test_capacity_iff_ratio_two_or_no_interference():
    for K in range(2, 5):
        for n_d in range(1, 3):
            for n_c in range(0, 7):
                cfg = DetChannelConfig(K=K, n_d=n_d, n_c=n_c)
                expected = n_c == 0 or n_c >= 2 * n_d
                assert det_capacity_check(cfg) == expected, (K, n_d, n_c)
                assert cfg.very_strong == expected


def test_interferer_sums_not_individually_decodable():
    # distinct interferer tuples with equal level-sums give identical
    # outputs: the receiver can never separate individual interferers
    cfg = DetChannelConfig(K=3, n_d=1, n_c=2)
    y_a = det_output(cfg, [[1], [0], [1]])
    y_b = det_output(cfg, [[1], [1], [0]])
    assert y_a[0].tolist() == y_b[0].tolist()
    # and generally: outputs at receiver 0 depend on interferers only
    # through their mod-2 sum
    cfg = DetChannelConfig(K=4, n_d=2, n_c=4)
    seen = {}
    for x in all_inputs(cfg):
        y0 = tuple(det_output(cfg, x)[0])
        key = (tuple(x[0]), tuple((x[1:].sum(axis=0)) % 2))
        if key in seen:
            assert seen[key] == y0
        else:
            seen[key] = y0


def test_gdof_cross_module_identity():
    # n_d, n_c levels stand for SNR = 2^(2 n_d), INR = 2^(2 n_c): the ratio is
    # the generalized-DoF alpha = log(INR)/log(SNR), very strong is INR >= SNR^2
    for n_d in range(1, 4):
        for n_c in range(1, 7):
            cfg = DetChannelConfig(K=3, n_d=n_d, n_c=n_c)
            SNR, INR = 2.0 ** (2 * n_d), 2.0 ** (2 * n_c)
            assert math.log(INR) / math.log(SNR) == pytest.approx(cfg.gdof_ratio, rel=1e-12)
            assert (INR >= SNR**2) == cfg.very_strong


def test_level_diagram_lists_all_receivers():
    cfg = DetChannelConfig(K=3, n_d=1, n_c=2)
    text = level_diagram(cfg)
    assert "receiver 1" in text and "receiver 3" in text
    assert "X2[0] ^ X3[0]" in text


def test_config_validation():
    with pytest.raises(ValueError):
        DetChannelConfig(K=1, n_d=1, n_c=2)
    with pytest.raises(ValueError):
        DetChannelConfig(K=2, n_d=0, n_c=2)
    with pytest.raises(ValueError):
        DetChannelConfig(K=2, n_d=1, n_c=-1)


def test_capacity_check_matches_brute_force_on_det_output():
    # det_capacity_check against a collision check built on det_output:
    # receiver j is zero-error iff no output value comes from two inputs
    # with different own bits
    for K in range(2, 4):
        for n_d in range(1, 3):
            for n_c in range(0, 6):
                cfg = DetChannelConfig(K=K, n_d=n_d, n_c=n_c)
                expected = collision_capacity_check(cfg)
                assert det_capacity_check(cfg) == expected, (K, n_d, n_c)


def oracle_grid() -> list[DetChannelConfig]:
    cfgs = [DetChannelConfig(K=K, n_d=n_d, n_c=n_c)
            for K in range(2, 7) for n_d in range(1, 5) for n_c in range(0, 12)
            if K * n_d <= 16]
    return cfgs + [DetChannelConfig(K=5, n_d=4, n_c=7), DetChannelConfig(K=5, n_d=4, n_c=8)]


def test_capacity_check_matches_exhaustive_oracle():
    # the rank test against the enumeration of all 2^(K*n_d) input tuples
    cfgs = oracle_grid()
    assert len(cfgs) == 206
    for cfg in cfgs:
        assert det_capacity_check(cfg) == exhaustive_capacity_check(cfg), cfg


def test_every_receiver_has_receiver_0s_rank_pair():
    # receiver j's matrix A_j is receiver 0's with user blocks 0 and j swapped,
    # so (rank2(A_j), rank2(A_j without j's own columns)) is one pair for all j
    for cfg in oracle_grid():
        K, n_d = cfg.K, cfg.n_d
        units = np.eye(K * n_d, dtype=np.int64).reshape(-1, K, n_d)
        outputs = np.stack([det_output(cfg, u) for u in units])  # (K*n_d, K, q)
        pairs = []
        for j in range(K):
            A = outputs[:, j, :].T
            own = slice(j * n_d, (j + 1) * n_d)
            pairs.append((rank_mod_p(A, 2), rank_mod_p(np.delete(A, own, axis=1), 2)))
        assert pairs == [pairs[0]] * K, cfg
