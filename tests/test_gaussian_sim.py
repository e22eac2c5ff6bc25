import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coset_scan_nearest, replay_monte_carlo, stage1_error_curve

from icalign.gaussian_sim import (
    ChannelConfig,
    SimulationReport,
    block_bounds,
    channel_output,
    decode_interference_sum,
    lattice_only_decode,
    loeliger_error_bound,
    report_csv_rows,
    run_monte_carlo,
    two_stage_decode,
)
from icalign.lattice_geometry import (
    ShapingShell,
    build_codebook,
    find_shift,
    message_codebook,
    nearest_codeword,
    nearest_lattice_point,
)
from icalign.regime import interference_free_capacity
from icalign.zp_codes import (
    ConstructionALattice,
    LinearCode,
    design_lattice,
    same_lattice_point,
    sample_code,
)


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
# message m is sent as its codeword cb.codewords[m]


def test_encode_outputs_in_shell():
    _, cb = tiny_system()
    for m in range(len(cb)):
        x = cb.codewords[m]
        assert cb.shell.contains(x)
        assert (x**2).sum() <= cb.lattice.n * cb.shell.P + 1e-12


def test_encode_decode_round_trip_noiseless():
    _, cb = tiny_system()
    for m in range(len(cb)):
        idx, _ = nearest_codeword(cb, cb.codewords[m])
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 6), k=st.integers(0, 3),
       gamma=st.floats(0.1, 10.0), K=st.sampled_from([2, 3, 6, 12]), a2=st.floats(2.0, 1e8),
       w_cells=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
       step=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_interference_decode_is_translation_invariant_at_any_K(p, n, k, gamma, K, a2, w_cells,
                                                              step, seed):
    # the K-user claim in exact form: stage 1 on w + a*sum(lambda) + (K-1)*a*s returns
    # a*sum(lambda) plus the nearest point of a*Lambda to w, whatever K and the lambdas are
    lat = ConstructionALattice(sample_code(p, n, min(k, n), seed), gamma)
    a = math.sqrt(a2)
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, p, size=(K - 1, lat.k))
    lambdas = gamma * ((msgs @ lat.code.G) % p + p * rng.integers(-50, 51, size=(K - 1, n)))
    s = gamma * rng.uniform(-p, p, size=n)
    # tie-free w: a step from w0 toward its nearest point lands inside the open Voronoi
    # cell, at least step * a * gamma / 2 from its boundary
    w0 = a * gamma * np.array(w_cells[:n])
    w = w0 + step * (coset_scan_nearest(lat, w0, scale=a) - w0)
    y = w + a * lambdas.sum(axis=0) + (K - 1) * a * s
    t_hat = decode_interference_sum(lat, a, s, K, y)
    want = a * lambdas.sum(axis=0) + nearest_lattice_point(lat, w, scale=a)
    assert same_lattice_point(lat, t_hat, want, a)


@functools.lru_cache(maxsize=None)
def criterion_8_codebook(part: str):
    """The codebook of acceptance criterion 8(a) or 8(b): P = 1, P' = P/4, p = 5, seeds 0."""
    n, R, Rp = 8, 0.25, 0.6  # (b)
    if part == "a":
        c1 = interference_free_capacity(1.0)
        n, R, Rp = 12, 0.9 * c1, (0.9 * c1 + c1) / 2
    shell = ShapingShell(n=n, P=1.0, P_prime=0.25)
    lat = design_lattice(n, Rp, shell.volume(), p=5, seed=0)
    return find_shift(lat, shell, R, trials=32, seed=0)[1]


@pytest.mark.parametrize("part, seed, trials, a2_grid", [
    ("b", 77, 300, (2, 3, 4, 6, 8, 12, 16)),
    ("a", 8001, 150, (2.5, 4, 8, 16)),
])
def test_one_draw_gives_the_stage1_curve(part, seed, trials, a2_grid):
    # stage 1 errs iff the point of a*Lambda nearest to x_j + z_j is not 0, so one
    # replay of the draws gives run_monte_carlo's stage-1 counts at every a^2, cell
    # by cell; and as the Voronoi cell is star-shaped about 0, a w that passes at
    # one a^2 passes at every larger one
    cb, K = criterion_8_codebook(part), 3
    errs = stage1_error_curve(seed, cb, K, trials, a2_grid)
    bounds = block_bounds(trials)
    for g, a2 in enumerate(a2_grid):
        report = run_monte_carlo(ChannelConfig(K=K, a=math.sqrt(a2), seed=seed), cb, trials)
        curve = np.add.reduceat(errs[g], bounds[:-1], axis=0)
        cells = np.argwhere(curve != report.block_intf_errors)
        assert not cells.size, [
            (a2, f"trials {bounds[b]}..{bounds[b + 1] - 1}", f"receiver {j}",
             np.flatnonzero(errs[g, bounds[b]:bounds[b + 1], j]) + bounds[b]) for b, j in cells]
    assert not np.argwhere(errs[1:] & ~errs[:-1]).size  # (grid step, trial, receiver)


@pytest.mark.parametrize("a2", [4.0, 8.0])
def test_stage1_error_rate_does_not_grow_with_k(a2):
    # the alignment threshold (P+1)^2/P does not depend on K, nor does the
    # stage-1 error rate at finite n: K = 2 and K = 12 lie within 4 standard
    # errors of K = 3 (receivers' verdicts are independent within a trial)
    cb, trials = criterion_8_codebook("b"), 600

    def rate(K):
        report = run_monte_carlo(ChannelConfig(K=K, a=math.sqrt(a2), seed=77), cb, trials)
        return float(report.intf_error_rate.mean()), trials * K

    r3, n3 = rate(3)
    for K in (2, 12):
        r, n = rate(K)
        se = math.sqrt(r * (1 - r) / n + r3 * (1 - r3) / n3)
        assert abs(r - r3) <= 4 * se, (K, r, r3, se)


@pytest.mark.parametrize("K", [3, 12])
def test_no_rate_penalty_up_to_a2_1e20(K):
    # criterion 10 stops at a^2 = 1e8; with stage 1 right, the two_stage receiver
    # still decides what the no_interference one does at 1e16 and 1e20.  From
    # about 1e24 the float64 channel output keeps z only to ulp(a*K*|x|) (README)
    cb, trials = criterion_8_codebook("b"), 300
    clean = run_monte_carlo(ChannelConfig(K=K, a=0.0, seed=77), cb, trials,
                            mode="no_interference")
    for a2 in (1e16, 1e20):
        report = run_monte_carlo(ChannelConfig(K=K, a=math.sqrt(a2), seed=77), cb, trials)
        assert not report.intf_errors.any(), a2
        assert np.array_equal(report.msg_errors, clean.msg_errors), a2


def test_interference_errors_rarer_than_message_errors_far_above_threshold():
    # a^2 = 16 is four times the alignment threshold at P = 1: stage 1
    # operates with a wide margin while stage 2 still faces unit noise
    n, P = 8, 1.0
    c1 = interference_free_capacity(P)
    R = 0.9 * c1
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, (R + c1) / 2, shell.volume(), p=5, seed=0)
    _, cb = find_shift(lat, shell, R, trials=32, seed=0)
    config = ChannelConfig(K=3, a=4.0, seed=11)
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
            t_hat, m_hat = two_stage_decode(cb, a, K, Y[j])
            assert same_lattice_point(lat, t_hat, true_t, a)
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
    config = ChannelConfig(K=3, a=4.0, seed=77)
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
    config = ChannelConfig(K=3, a=4.0, seed=1)
    with pytest.raises(ValueError):
        run_monte_carlo(config, cb, 0)


def test_same_seed_identical_report():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, seed=123)
    r1 = run_monte_carlo(config, cb, 300, mode="two_stage")
    r2 = run_monte_carlo(config, cb, 300, mode="two_stage")
    assert np.array_equal(r1.msg_error_rate, r2.msg_error_rate)
    assert np.array_equal(r1.intf_error_rate, r2.intf_error_rate)
    assert np.array_equal(r1.block_msg_errors, r2.block_msg_errors)
    assert np.array_equal(r1.eff_noise_mean, r2.eff_noise_mean)
    r3 = run_monte_carlo(ChannelConfig(K=3, a=4.0, seed=124), cb, 300)
    assert not np.array_equal(r1.msg_error_rate, r3.msg_error_rate)


def test_mode_config_consistency():
    _, cb = tiny_system()
    with pytest.raises(ValueError):
        run_monte_carlo(ChannelConfig(K=3, a=1.0, seed=1), cb, 10,
                        mode="no_interference")
    with pytest.raises(ValueError):
        run_monte_carlo(ChannelConfig(K=3, a=0.0, seed=1), cb, 10,
                        mode="two_stage")


def test_no_interference_baseline_reduces_to_nearest_codeword():
    _, cb = tiny_system()
    config = ChannelConfig(K=2, a=0.0, seed=9)
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


def test_stage1_compares_lattice_coordinates():
    lat, cb = tiny_system()
    a, K = 4.0, 3
    X = cb.codewords[[0, 3, 5]]
    y = channel_output(X, a, np.zeros((3, 2)))[0]
    lam = X - cb.shift
    true_t = a * (lam[1] + lam[2])
    cell = a * lat.gamma
    t_hat, _ = two_stage_decode(cb, a, K, y)

    def intf_err(true):
        return not same_lattice_point(lat, t_hat, true, a)

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
    config = ChannelConfig(K=K, a=a, seed=seed)
    report = run_monte_carlo(config, cb, trials, mode=mode)
    intf, msg, msg_intf_ok = replay_monte_carlo(config, cb, trials, mode)
    assert np.array_equal(report.intf_errors, intf)
    assert np.array_equal(report.msg_errors, msg)
    assert np.array_equal(report.msg_errors_intf_ok, msg_intf_ok)
    assert report.msg_errors.sum() > 0  # the replay compares real decisions


def test_public_decoders_enumerate_each_lattice_once(monkeypatch):
    # 100 public decodes on one codebook enumerate its lattice's cosets once
    # and cache nothing on the lattice or the codebook, which callers keep
    # alive (index_of's own table aside); the memo's arrays are read-only
    from icalign import lattice_geometry

    lat, cb = message_system()
    other = ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), 1.0)
    lattice_geometry.nearest_lattice_point(other, np.zeros(2))  # memo now holds `other`
    lat_vars, cb_vars = dict(vars(lat)), dict(vars(cb))
    calls = []
    enumerate_codewords = lattice_geometry.enumerate_codewords
    monkeypatch.setattr(lattice_geometry, "enumerate_codewords",
                        lambda code: calls.append(code) or enumerate_codewords(code))
    rng = np.random.default_rng(17)
    for _ in range(50):
        y = 3 * rng.standard_normal(lat.n)
        two_stage_decode(cb, 2.0, 3, y)
        lattice_only_decode(cb, y)
    assert len(calls) == 1 and calls[0] is lat.code
    assert set(vars(lat)) == set(lat_vars) and set(vars(cb)) - set(cb_vars) <= {"_index_table"}
    assert all(vars(obj)[k] is v for obj, before in ((lat, lat_vars), (cb, cb_vars))
               for k, v in before.items())
    words, index = lattice_geometry._coset_table(lat)
    assert not words.flags.writeable and not index.flags.writeable
    # coordinate-major: one contiguous row of p^k gather offsets per coordinate
    assert index.shape == (lat.n, len(words)) and index.flags.c_contiguous
    assert index.dtype == np.intp and (index == words.T + lat.p * np.arange(lat.n)[:, None]).all()
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_target_raises_value_error(bad):
    # one NaN or infinite coordinate is refused by name, not by an
    # IndexError from an empty argmin
    lat, cb = message_system()
    y = np.zeros(lat.n)
    y[1] = bad
    decoders = [lambda: nearest_lattice_point(lat, y, scale=2.0),
                lambda: two_stage_decode(cb, 2.0, 3, y),
                lambda: lattice_only_decode(cb, y)]
    for decode in decoders:
        with pytest.raises(ValueError, match="target must be finite"):
            decode()


def test_point_to_point_sanity_low_error():
    # a = 0, R well below capacity: nearest-codeword decoding over a
    # well-separated message set should be reliable at n = 8
    n, P = 8, 16.0
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    R = 0.25 * interference_free_capacity(P)
    lat = design_lattice(n, (R + interference_free_capacity(P)) / 2, shell.volume(), p=5, seed=3)
    shift, cb = find_shift(lat, shell, R, trials=32, seed=3)
    config = ChannelConfig(K=2, a=0.0, seed=42)
    report = run_monte_carlo(config, cb, 1000, mode="no_interference")
    assert float(report.msg_error_rate.mean()) < 0.1


def test_union_bound_bookkeeping_identity():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=2.0, seed=5)
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
    config = ChannelConfig(K=3, a=4.0, seed=8)
    report = run_monte_carlo(config, cb, 2000, mode="two_stage")
    for j in range(3):
        bound = cb.shell.P + 1.0 + 3.0 * report.eff_noise_stderr[j]
        assert report.eff_noise_mean[j] <= bound


def test_alignment_invariant_counted():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, seed=21)
    report = run_monte_carlo(config, cb, 200, mode="two_stage")
    assert report.alignment_checks == 200 * 3
    assert report.alignment_violations == 0


def test_block_rows_schema():
    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, seed=2)
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
    config = ChannelConfig(K=3, a=4.0, seed=2)
    report = run_monte_carlo(config, cb, trials)
    bounds = block_bounds(report.trials)
    assert len(bounds) == blocks + 1
    assert report.block_msg_errors.shape == (blocks, 3)
    assert np.all(np.diff(bounds) == trials // blocks)


def test_report_stores_counts_and_derives_rates():
    import dataclasses

    _, cb = tiny_system()
    # 20 trials in 10 blocks of 2; user 0 errs in stage 1 on 6 trials, user 1 on none
    blk_intf = np.zeros((10, 2), dtype=np.int64)
    blk_intf[:, 0] = [1, 0, 0, 2, 1, 0, 0, 0, 0, 2]
    blk_msg = np.zeros((10, 2), dtype=np.int64)
    blk_msg[0] = [2, 1]
    blk_msg[5] = [0, 1]
    report = SimulationReport(
        config=ChannelConfig(K=2, a=4.0, seed=0), mode="two_stage", trials=20, codebook=cb,
        block_intf_errors=blk_intf, block_msg_errors=blk_msg,
        msg_errors_intf_ok=np.array([0, 2]), eff_noise_mean=np.array([2.5, 2.75]),
        eff_noise_stderr=np.array([0.1, 0.2]), alignment_checks=40, alignment_violations=0)
    assert [f.name for f in dataclasses.fields(report)] == [
        "config", "mode", "trials", "codebook", "block_intf_errors", "block_msg_errors",
        "msg_errors_intf_ok", "eff_noise_mean", "eff_noise_stderr", "alignment_checks",
        "alignment_violations"]
    assert report.intf_errors.tolist() == [6, 0]
    assert report.msg_errors.tolist() == [2, 2]
    d = report.to_dict()
    assert d["intf_error_rate"] == [0.3, 0.0]
    assert d["msg_error_rate"] == [0.1, 0.1]
    assert d["intf_ci_half_width"] == [1.96 * math.sqrt(0.3 * (1 - 0.3) / 20), 0.0]
    assert d["msg_ci_half_width"] == [1.96 * math.sqrt(0.1 * (1 - 0.1) / 20)] * 2
    rows = report_csv_rows(report)
    assert len(rows) == 10 * 2
    assert rows[0] == {"trial_block": 0, "user": 0, "intf_err_rate": 0.5,
                       "msg_err_rate": 1.0, "ci_half_width": 0.0}
    assert rows[6] == {"trial_block": 3, "user": 0, "intf_err_rate": 1.0,
                       "msg_err_rate": 0.0, "ci_half_width": 0.0}
    assert rows[11] == {"trial_block": 5, "user": 1, "intf_err_rate": 0.0, "msg_err_rate": 0.5,
                        "ci_half_width": 1.96 * math.sqrt(0.5 * 0.5 / 2)}


def test_report_to_dict_is_json_ready():
    import json

    _, cb = tiny_system()
    config = ChannelConfig(K=3, a=4.0, seed=2)
    report = run_monte_carlo(config, cb, 50, mode="two_stage")
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(text)["trials"] == 50


def test_readme_quick_start_binds_to_the_library():
    # the library twin of the README flag test: parse the snippet, do not
    # run its 10,000 trials; every icalign name it imports must exist and
    # every call of one must bind to that callable's signature
    import ast
    import inspect
    import os

    import icalign

    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    fence = "```python\n"
    start = readme.index(fence, readme.index("## Library quick start")) + len(fence)
    tree = ast.parse(readme[start:readme.index("```", start)])
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "icalign":
            for alias in node.names:
                assert hasattr(icalign, alias.name), alias.name
                imported[alias.asname or alias.name] = getattr(icalign, alias.name)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in imported:
            name = node.func.id
            assert not any(isinstance(arg, ast.Starred) for arg in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            try:
                inspect.signature(imported[name]).bind(
                    *node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"README line {node.lineno}: {name}: {exc}") from None
            called.add(name)
    assert called == set(imported)


def test_readme_lists_exactly_the_exported_names():
    # each name README lists under its module is exported from that module,
    # and icalign exports nothing README does not list
    import inspect
    import os
    import re

    import icalign

    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("`icalign` exports these names"):
                     readme.index("Everything is deterministic given the seeds")]
    listed = {name: module
              for module, names in re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section, re.M)
              for name in re.findall(r"`(\w+)`", names)}
    exported = {name: obj.__module__.removeprefix("icalign.")
                for name, obj in vars(icalign).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert listed == exported
