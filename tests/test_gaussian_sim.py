import itertools
import math

import numpy as np
import pytest
from oracles import replay_monte_carlo

from icalign.gaussian_sim import (
    ChannelConfig,
    channel_output,
    decode_interference_sum,
    encode,
    lattice_only_decode,
    loeliger_error_bound,
    run_monte_carlo,
    two_stage_decode,
)
from icalign.lattice_geometry import (
    ShapingShell,
    build_codebook,
    find_shift,
    message_codebook,
    nearest_codeword,
)
from icalign.regime import interference_free_capacity
from icalign.zp_codes import ConstructionALattice, LinearCode, design_lattice


def tiny_system():
    """Repetition-code lattice, shift (.5,.5), 6-point codebook at P=2.

    With a = 4 the scaled Voronoi packing radius a*sqrt(2)/2 ~ 2.83
    exceeds the largest codeword norm sqrt(2.5), so noiseless decoding of
    the interference sum is exact for every message tuple.
    """
    lat = ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), 1.0)
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    return lat, cb


def message_system():
    """The n=4 message codebook of test_monte_carlo_agrees_with_public_decoders.

    4 message words; gamma = 0.975... is not a power of two, so a*gamma*Z^n
    points carry rounding error that grows with a.
    """
    shell = ShapingShell(n=4, P=2.0, P_prime=0.5)
    lat = design_lattice(4, 0.9, shell.volume(), p=3, seed=2)
    _, cb = find_shift(lat, shell, 0.5, trials=16, seed=2)
    return lat, message_codebook(cb)


# ---------------------------------------------------------------- encode


def test_encode_first_codeword_and_bounds():
    _, cb = tiny_system()
    assert np.array_equal(encode(cb, 0), cb.codewords[0])
    with pytest.raises(IndexError):
        encode(cb, len(cb))


def test_encode_outputs_in_shell():
    _, cb = tiny_system()
    for m in range(len(cb)):
        x = encode(cb, m)
        assert cb.shell.contains(x)
        assert (x**2).sum() <= cb.lattice.n * cb.shell.P + 1e-12


def test_encode_decode_round_trip_noiseless():
    _, cb = tiny_system()
    for m in range(len(cb)):
        idx, _ = nearest_codeword(cb, encode(cb, m))
        assert idx == m


# ---------------------------------------------------------- channel_output


def test_channel_output_no_interference():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, 4))
    Z = rng.normal(size=(3, 4))
    Y = channel_output(X, 0.0, Z)
    assert np.allclose(Y, X + Z)


def test_channel_output_definition_k3():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    Y = channel_output(X, 0.5, np.zeros((3, 2)))
    assert np.allclose(Y[0], X[0] + 0.5 * (X[1] + X[2]))
    assert np.allclose(Y[1], X[1] + 0.5 * (X[0] + X[2]))
    assert np.allclose(Y[2], X[2] + 0.5 * (X[0] + X[1]))


def test_channel_output_user_permutation_symmetry():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 3))
    Z = rng.normal(size=(4, 3))
    perm = np.array([2, 0, 3, 1])
    Y = channel_output(X, 1.7, Z)
    Yp = channel_output(X[perm], 1.7, Z[perm])
    assert np.allclose(Yp, Y[perm])


def test_channel_output_shape_mismatch():
    with pytest.raises(ValueError):
        channel_output(np.zeros((3, 2)), 1.0, np.zeros((3, 3)))


# ------------------------------------------------- decode_interference_sum


def test_interference_decode_noiseless_zero():
    lat, cb = tiny_system()
    K, a = 3, 2.0
    # all-zero desired signal and lambda_2 = lambda_3 = 0: received signal
    # is (K-1)*a*s, fully cancelled
    y = (K - 1) * a * cb.shift
    t = decode_interference_sum(lat, a, cb.shift, K, y)
    assert np.allclose(t, 0.0)


def test_interference_decode_exhaustive_pairs():
    # noiseless, x_1 = 0: receiver 1 sees a*(x_2 + x_3); after shift
    # cancellation the target is exactly a*(lambda_2 + lambda_3)
    lat, cb = tiny_system()
    K, a = 3, 2.5
    for m2, m3 in itertools.product(range(len(cb)), repeat=2):
        x2, x3 = cb.codewords[m2], cb.codewords[m3]
        y = a * (x2 + x3)
        t = decode_interference_sum(lat, a, cb.shift, K, y)
        expected = a * ((x2 - cb.shift) + (x3 - cb.shift))
        assert np.allclose(t, expected, atol=1e-9)


def test_interference_errors_rarer_than_message_errors_far_above_threshold():
    # a^2 = 16 is four times the alignment threshold at P = 1: stage 1
    # operates with a wide margin while stage 2 still faces unit noise
    n, P = 8, 1.0
    c1 = interference_free_capacity(P)
    R = 0.9 * c1
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, (R + c1) / 2, shell.volume(), p=5, seed=0)
    _, cb = find_shift(lat, shell, R, trials=32, seed=0)
    config = ChannelConfig(K=3, a=4.0, P=P, n=n, seed=11)
    report = run_monte_carlo(config, cb, 10_000, mode="two_stage")
    assert float(report.intf_error_rate.mean()) < float(report.msg_error_rate.mean())


def test_interference_decode_rejects_zero_gain():
    lat, cb = tiny_system()
    with pytest.raises(ValueError):
        decode_interference_sum(lat, 0.0, cb.shift, 3, np.zeros(2))


# ----------------------------------------------------------- two_stage_decode


@pytest.mark.parametrize("system, a", [(tiny_system, 4.0), (message_system, 1e7)],
                         ids=["tiny_a4", "n4_a1e7"])
def test_two_stage_noiseless_exhaustive_all_triples(system, a):
    lat, cb = system()
    K = 3
    for msgs in itertools.product(range(len(cb)), repeat=K):
        X = cb.codewords[list(msgs)]
        Y = channel_output(X, a, np.zeros_like(X))
        for j in range(K):
            lam = X - cb.shift
            true_t = a * (lam.sum(axis=0) - lam[j])
            m_hat, res = two_stage_decode(
                cb, a, K, Y[j], true_interference=true_t, true_message=msgs[j]
            )
            assert res.interference_error is False
            assert res.message_error is False
            assert m_hat == msgs[j]


# --------------------------------------------------------- lattice_only mode


def test_lattice_only_noiseless_exact():
    _, cb = tiny_system()
    for m in range(len(cb)):
        idx = lattice_only_decode(cb, cb.codewords[m])
        assert idx == m
        # a coordinate a hair below a zero lattice coordinate rounds to -0.0
        # as a float; integer keys still match it
        assert cb.index_of(cb.codewords[m] - 1e-12) == m


def test_lattice_only_out_of_codebook_returns_none():
    _, cb = tiny_system()
    # a faraway lattice point + shift is decodable but not a codeword
    y = cb.shift + np.array([20.0, 20.0])
    assert lattice_only_decode(cb, y) is None


def test_lattice_only_never_beats_two_stage_paired():
    # per trial: a lattice-only success means the true point was the
    # nearest lattice point, hence also the nearest codeword, so with
    # paired seeds the error sets are nested
    lat, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=77)
    r_two = run_monte_carlo(config, cb, 400, mode="two_stage")
    r_lat = run_monte_carlo(config, cb, 400, mode="lattice_only")
    assert np.all(r_lat.msg_error_rate >= r_two.msg_error_rate)
    assert np.array_equal(r_lat.intf_error_rate, r_two.intf_error_rate)


# ------------------------------------------------------- loeliger_error_bound


def test_bound_halves_when_volume_doubles():
    b1 = loeliger_error_bound(4, 2.0, 10.0, 1.5).bound
    b2 = loeliger_error_bound(4, 2.0, 20.0, 1.5).bound
    assert b1 == pytest.approx(2 * b2, rel=1e-12)


def test_bound_arithmetic_example():
    res = loeliger_error_bound(1, 1.0 / (2 * math.pi * math.e), 4.0, 1.0)
    assert res.bound == pytest.approx(1.0, rel=1e-12)


def test_decay_predicate_matches_rate_constraint_crossover():
    # with sigma^2 = 1 + P, V = 2^(-n c1) * (2 pi e P)^(n/2) (the large-n
    # shell volume exponent) and a^2 at the alignment threshold, the decay
    # margin is identically zero; off-threshold it changes sign
    from icalign.regime import alignment_threshold, rate_constraints

    for P in np.logspace(-1, 2, 25):
        P = float(P)
        n = 8
        c1, _ = rate_constraints(P, 1.0)
        V = 2.0 ** (-n * c1) * (2 * math.pi * math.e * P) ** (n / 2)
        a_star = math.sqrt(alignment_threshold(P))
        res = loeliger_error_bound(n, 1.0 + P, V, a_star)
        assert res.decay_margin == pytest.approx(0.0, abs=1e-12)
        assert loeliger_error_bound(n, 1.0 + P, V, a_star * 1.01).decays
        assert not loeliger_error_bound(n, 1.0 + P, V, a_star * 0.99).decays


def test_bound_validates_inputs():
    with pytest.raises(ValueError):
        loeliger_error_bound(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        loeliger_error_bound(1, -1.0, 1.0, 1.0)


# ------------------------------------------------------------ run_monte_carlo


def test_zero_trials_rejected():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=1)
    with pytest.raises(ValueError):
        run_monte_carlo(config, cb, 0)


def test_same_seed_identical_report():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=123)
    r1 = run_monte_carlo(config, cb, 300, mode="two_stage")
    r2 = run_monte_carlo(config, cb, 300, mode="two_stage")
    assert np.array_equal(r1.msg_error_rate, r2.msg_error_rate)
    assert np.array_equal(r1.intf_error_rate, r2.intf_error_rate)
    assert np.array_equal(r1.block_msg_errors, r2.block_msg_errors)
    assert np.array_equal(r1.eff_noise_mean, r2.eff_noise_mean)
    r3 = run_monte_carlo(ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=124), cb, 300)
    assert not np.array_equal(r1.msg_error_rate, r3.msg_error_rate)


def test_mode_config_consistency():
    _, cb = tiny_system()
    with pytest.raises(ValueError):
        run_monte_carlo(ChannelConfig(K=3, a=1.0, P=2.0, n=2, seed=1), cb, 10,
                        mode="no_interference")
    with pytest.raises(ValueError):
        run_monte_carlo(ChannelConfig(K=3, a=0.0, P=2.0, n=2, seed=1), cb, 10,
                        mode="two_stage")
    with pytest.raises(ValueError):
        run_monte_carlo(ChannelConfig(K=3, a=1.0, P=3.0, n=2, seed=1), cb, 10)


def test_no_interference_baseline_reduces_to_nearest_codeword():
    _, cb = tiny_system()
    config = ChannelConfig(K=2, a=0.0, P=2.0, n=2, seed=9)
    report = run_monte_carlo(config, cb, 50, mode="no_interference")
    # replay the trial substreams and check the decoding rule directly
    mcb = message_codebook(cb)
    errors = np.zeros(2, dtype=int)
    for i in range(50):
        rng = np.random.default_rng([9, 2, i])
        msgs = rng.integers(0, mcb.message_count, size=2)
        X = mcb.codewords[msgs]
        Z = rng.standard_normal((2, 2))
        Y = channel_output(X, 0.0, Z)
        for j in range(2):
            idx, _ = nearest_codeword(mcb, Y[j])
            errors[j] += idx != msgs[j]
    assert np.array_equal(report.msg_errors, errors)
    assert report.intf_error_rate.tolist() == [0.0, 0.0]


def test_config_P_matches_shell_P_to_relative_tolerance():
    lat = ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), 0.3)
    cb = build_codebook(lat, [0.15, 0.15], ShapingShell(n=2, P=0.3), R=0.5)
    report = run_monte_carlo(ChannelConfig(K=3, a=4.0, P=0.1 + 0.2, n=2, seed=1), cb, 5)
    assert report.trials == 5
    with pytest.raises(ValueError, match=r"config P=0\.31 != shell P=0\.3\b"):
        run_monte_carlo(ChannelConfig(K=3, a=4.0, P=0.31, n=2, seed=1), cb, 5)


def test_stage1_compares_lattice_coordinates():
    _, cb = tiny_system()
    a, K = 4.0, 3
    X = cb.codewords[[0, 3, 5]]
    y = channel_output(X, a, np.zeros((3, 2)))[0]
    lam = X - cb.shift
    true_t = a * (lam[1] + lam[2])
    cell = a * cb.lattice.gamma

    def intf_err(true):
        return two_stage_decode(cb, a, K, y, true_interference=true)[1].interference_error

    assert intf_err(true_t) is False
    for j in range(2):
        assert intf_err(true_t + cell * np.eye(2)[j]) is True
        assert intf_err(true_t - cell * np.eye(2)[j]) is True
    with np.errstate(invalid="ignore"):  # NaN has no integer coordinate
        assert intf_err(np.array([np.nan, true_t[1]])) is True


@pytest.mark.parametrize(
    "mode, a",
    [("two_stage", 2.5), ("lattice_only", 2.5), ("no_interference", 0.0),
     ("two_stage", 1e7), ("lattice_only", 1e7)],
    ids=["two_stage", "lattice_only", "no_interference", "two_stage_a1e7",
         "lattice_only_a1e7"],
)
def test_monte_carlo_agrees_with_public_decoders(mode, a):
    # replay the per-trial substreams through the public decoders of each
    # mode and compare every per-user error count
    n, P, K, seed, trials = 4, 2.0, 3, 13, 120
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, 0.9, shell.volume(), p=3, seed=2)  # k = 1, 12 codewords
    _, cb = find_shift(lat, shell, 0.5, trials=16, seed=2)  # 4 of them carry messages
    config = ChannelConfig(K=K, a=a, P=P, n=n, seed=seed)
    report = run_monte_carlo(config, cb, trials, mode=mode)
    intf, msg, msg_intf_ok = replay_monte_carlo(config, cb, trials, mode)
    assert np.array_equal(report.intf_errors, intf)
    assert np.array_equal(report.msg_errors, msg)
    assert np.array_equal(report.msg_errors_intf_ok, msg_intf_ok)
    assert report.msg_errors.sum() > 0  # the replay compares real decisions


def test_point_to_point_sanity_low_error():
    # a = 0, R well below capacity: nearest-codeword decoding over a
    # well-separated message set should be reliable at n = 8
    n, P = 8, 16.0
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    R = 0.25 * interference_free_capacity(P)
    lat = design_lattice(n, (R + interference_free_capacity(P)) / 2, shell.volume(), p=5, seed=3)
    shift, cb = find_shift(lat, shell, R, trials=32, seed=3)
    config = ChannelConfig(K=2, a=0.0, P=P, n=n, seed=42)
    report = run_monte_carlo(config, cb, 1000, mode="no_interference")
    assert float(report.msg_error_rate.mean()) < 0.1


def test_union_bound_bookkeeping_identity():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=2.0, P=2.0, n=2, seed=5)
    report = run_monte_carlo(config, cb, 500, mode="two_stage")
    # msg errors split exactly into (stage-1 wrong) and (stage-1 right but
    # stage-2 wrong); so rate(msg) <= rate(intf) + rate(msg | intf ok)
    for j in range(3):
        assert report.msg_errors[j] <= report.intf_errors[j] + report.msg_errors_intf_ok[j]
        assert report.msg_error_rate[j] <= (
            report.intf_error_rate[j] + report.msg_errors_intf_ok[j] / report.trials
        )


def test_effective_noise_power_bounded():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=8)
    report = run_monte_carlo(config, cb, 2000, mode="two_stage")
    for j in range(3):
        bound = config.P + 1.0 + 3.0 * report.eff_noise_stderr[j]
        assert report.eff_noise_mean[j] <= bound


def test_alignment_invariant_counted():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=21)
    report = run_monte_carlo(config, cb, 200, mode="two_stage")
    assert report.alignment_checks == 200 * 3
    assert report.alignment_violations == 0


def test_block_rows_schema():
    from icalign.gaussian_sim import report_csv_rows

    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=2)
    report = run_monte_carlo(config, cb, 100, mode="two_stage")
    rows = report_csv_rows(report)
    assert len(rows) == 10 * 3
    assert list(rows[0]) == ["trial_block", "user", "intf_err_rate",
                             "msg_err_rate", "ci_half_width"]
    # block counts add up to the totals
    total = sum(r["msg_err_rate"] * 10 for r in rows if r["user"] == 0)
    assert total == pytest.approx(report.msg_errors[0])


@pytest.mark.parametrize("trials, blocks", [(7, 7), (100, 10)])
def test_block_count_is_min_of_ten_and_trials(trials, blocks):
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=2)
    report = run_monte_carlo(config, cb, trials)
    assert len(report.block_bounds) == blocks + 1
    assert report.block_msg_errors.shape == (blocks, 3)
    assert np.all(np.diff(report.block_bounds) == trials // blocks)


def test_report_to_dict_is_json_ready():
    import json

    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, P=2.0, n=2, seed=2)
    report = run_monte_carlo(config, cb, 50, mode="two_stage")
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert "wall_clock" not in text
    assert json.loads(text)["trials"] == 50
