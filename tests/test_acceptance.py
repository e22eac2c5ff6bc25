"""Acceptance suite: one test per numbered criterion.

Each test prints a single `ACCEPTANCE <n> <name>: PASS/FAIL` line with the
measured quantities (run pytest with -s to see them inline).
"""

import hashlib
import itertools
import math
import os
import time

import numpy as np
import pytest
from oracles import brute_force_nearest

from icalign.cli_harness import parse_config, run_experiment
from icalign.det_channel import DetChannelConfig, det_capacity_check
from icalign.gaussian_sim import (
    ChannelConfig,
    channel_output,
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
from icalign.regime import (
    alignment_threshold,
    interference_free_capacity,
    joint_decode_threshold,
    rate_constraints,
)
from icalign.zp_codes import (
    ConstructionALattice,
    LinearCode,
    design_lattice,
    enumerate_codewords,
    fundamental_volume,
    is_lattice_point,
    same_lattice_point,
    sample_code,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_threshold_algebra():
    t0 = time.perf_counter()
    P_grid = np.logspace(-2, 3, 61)
    worst_reduction = 0.0
    worst_cross = 0.0
    for P in P_grid:
        P = float(P)
        jd2 = joint_decode_threshold(2, P)
        worst_reduction = max(worst_reduction, abs(jd2 - (1.0 + P)) / (1.0 + P))
        for K in range(2, 7):
            joint_decode_threshold(K, P)  # must evaluate cleanly
        a_star = math.sqrt(alignment_threshold(P))
        c1, c2 = rate_constraints(P, a_star)
        worst_cross = max(worst_cross, abs(c2 - c1) / abs(c1))
    elapsed = time.perf_counter() - t0
    ok = worst_reduction <= 1e-12 and worst_cross <= 1e-12 and elapsed < 1.0
    report(1, "threshold-algebra", ok,
           f"max rel err: K=2 reduction {worst_reduction:.2e}, "
           f"crossover {worst_cross:.2e}, {elapsed:.2f}s")
    assert worst_reduction <= 1e-12
    assert worst_cross <= 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 2


def test_criterion_2_regime_tightening():
    # The alignment threshold (P+1)^2/P is constant in K while joint
    # decoding grows exponentially in K.  Pointwise, alignment <=
    # joint_decode(K, P) iff (1+P)^(K-1) - 1 >= (K-1)(1+P): at K = 3 that
    # is P >= sqrt(2) (so P = 1 on the grid is the one exception, 4 vs 3),
    # and for K >= 4 the crossover lies below P = 1.
    t0 = time.perf_counter()
    P_grid = [float(P) for P in np.linspace(1.0, 100.0, 100)]
    Ks = range(2, 7)
    jd = {K: [joint_decode_threshold(K, P) for P in P_grid] for K in Ks}
    al = [alignment_threshold(P) for P in P_grid]

    def above_joint_decode(K):
        return [P for P, a, j in zip(P_grid, al, jd[K]) if a > j]

    def crossover(K):
        # bisection on the smallest P with alignment <= joint_decode(K, P)
        lo, hi = 1e-3, 100.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if alignment_threshold(mid) <= joint_decode_threshold(K, mid):
                hi = mid
            else:
                lo = mid
        return hi

    root2 = math.sqrt(2.0)
    above_k3 = above_joint_decode(3)
    expected_k3 = [P for P in P_grid if P < root2]
    jd_root2 = joint_decode_threshold(3, root2)
    root2_gap = abs(alignment_threshold(root2) - jd_root2) / jd_root2
    above_k_ge4 = {K: above_joint_decode(K) for K in (4, 5, 6)}
    ratio = {K: [j / a for j, a in zip(jd[K], al)] for K in Ks}
    not_growing = [
        P for i, P in enumerate(P_grid)
        if not all(ratio[K + 1][i] > ratio[K][i] for K in range(2, 6))
    ]
    crossovers = {K: crossover(K) for K in (3, 4, 5, 6)}
    ratio_at_15 = joint_decode_threshold(3, 15.0) / alignment_threshold(15.0)
    elapsed = time.perf_counter() - t0
    ok = (above_k3 == expected_k3 and root2_gap <= 1e-12
          and not any(above_k_ge4.values()) and not not_growing
          and ratio_at_15 >= 7.0 and elapsed < 1.0)
    report(2, "regime-tightening", ok,
           f"K=3 crossover at P = {crossovers[3]:.6f} (sqrt(2) = {root2:.6f}, "
           f"rel gap there {root2_gap:.1e}), grid points above joint decode "
           f"{above_k3}; K=4..6 crossovers "
           + ", ".join(f"{crossovers[K]:.3f}" for K in (4, 5, 6))
           + ", grid points above joint decode "
           + ", ".join(str(len(above_k_ge4[K])) for K in (4, 5, 6))
           + f"; ratio not growing in K=2..6 at {len(not_growing)} grid "
           f"point(s); ratio(P=15) = {ratio_at_15:.3f} (136 vs 256/15), "
           f"{elapsed:.2f}s")
    assert above_k3 == expected_k3, (
        f"K=3: alignment above joint decode at P = {above_k3}, "
        f"expected exactly P < sqrt(2): {expected_k3}")
    assert root2_gap <= 1e-12, f"K=3 thresholds differ at P = sqrt(2): {root2_gap:.2e}"
    for K, above in above_k_ge4.items():
        assert not above, f"K={K}: alignment above joint decode at P = {above}"
    assert not not_growing, f"joint-decode/alignment not increasing in K at P = {not_growing}"
    assert ratio_at_15 >= 7.0
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_deterministic_channel_capacity():
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for K in range(2, 6):
        for n_d in range(1, 4):
            for n_c in range(0, 7):
                cfg = DetChannelConfig(K=K, n_d=n_d, n_c=n_c)
                got = det_capacity_check(cfg)
                want = n_c == 0 or n_c >= 2 * n_d
                checked += 1
                if got != want:
                    mismatches.append((K, n_d, n_c, got))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(3, "deterministic-channel", ok,
           f"{checked} configs decided by GF(2) rank, {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 4


def test_criterion_4_cvp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for i in range(500):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, min(3, n) + 1))
        gamma = float(rng.uniform(0.4, 1.6))
        code = sample_code(p, n, k, int(rng.integers(1 << 30)))
        lat = ConstructionALattice(code, gamma)
        t = rng.uniform(-1.5, 1.5, size=n) * gamma * p  # inside a 3-cell ball
        got = nearest_lattice_point(lat, t)
        want, want_d2 = brute_force_nearest(lat, t)
        got_d2 = float(((got - t) ** 2).sum())
        if abs(got_d2 - want_d2) > 1e-12 * max(1.0, want_d2):
            failures += 1
        elif not np.allclose(got, want, atol=1e-9):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    report(4, "cvp-oracle-equivalence", ok,
           f"500 instances, {failures} disagreements, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 5


def test_criterion_5_lattice_algebra_properties():
    rng = np.random.default_rng(555)

    def random_lattice():
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, min(3, n) + 1))
        gamma = float(rng.uniform(0.2, 2.0))
        code = sample_code(p, n, k, int(rng.integers(1 << 30)))
        return ConstructionALattice(code, gamma)

    def member(lat):
        words = enumerate_codewords(lat.code)
        c = words[rng.integers(len(words))]
        return lat.gamma * (c + lat.p * rng.integers(-3, 4, size=lat.n))

    failures = {"closure": 0, "volume": 0, "membership": 0, "design": 0}
    for _ in range(1000):
        lat = random_lattice()
        u, v = member(lat), member(lat)
        if not (is_lattice_point(lat, u + v) and is_lattice_point(lat, -u)):
            failures["closure"] += 1
    for _ in range(1000):
        lat = random_lattice()
        expected = math.exp(lat.n * math.log(lat.gamma) + (lat.n - lat.k) * math.log(lat.p))
        if abs(fundamental_volume(lat) - expected) > 1e-12 * expected:
            failures["volume"] += 1
    for _ in range(1000):
        lat = random_lattice()
        if not is_lattice_point(lat, member(lat)):
            failures["membership"] += 1
        w = rng.integers(0, lat.p, size=lat.n)
        if not lat.code.contains(w):
            z = rng.integers(-3, 4, size=lat.n)
            if is_lattice_point(lat, lat.gamma * (w + lat.p * z)):
                failures["membership"] += 1
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        R_prime = float(rng.uniform(0.1, 2.0))
        V_S = float(rng.uniform(0.5, 1e6))
        p = int(rng.choice([2, 3, 5, 7]))
        lat = design_lattice(n, R_prime, V_S, p=p)
        target = 2.0 ** (-n * R_prime) * V_S
        if abs(fundamental_volume(lat) - target) > 1e-9 * target:
            failures["design"] += 1
    total = sum(failures.values())
    report(5, "lattice-algebra-properties", total == 0,
           f"4 x 1000 randomized cases, failures: {failures}")
    assert total == 0, failures


# --------------------------------------------------------------- criterion 6


def test_criterion_6_alignment_invariant_100k_trials():
    lat = ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), 1.0)
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    config = ChannelConfig(K=3, a=4.0, seed=606)
    trials = 100_000
    rep = run_monte_carlo(config, cb, trials, mode="two_stage")
    ok = rep.alignment_violations == 0 and rep.alignment_checks == trials * 3
    report(6, "alignment-invariant", ok,
           f"{rep.alignment_checks} membership checks, "
           f"{rep.alignment_violations} violations")
    assert rep.alignment_checks == trials * 3
    assert rep.alignment_violations == 0


# --------------------------------------------------------------- criterion 7


def test_criterion_7_noiseless_exactness():
    # K=3, p=2, n=2 tiny codebook; a=4 so the scaled Voronoi packing
    # radius (a*sqrt(2)/2 ~ 2.83) exceeds the largest codeword norm
    # (sqrt(2.5)), making both stages exact without noise
    lat = ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), 1.0)
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = message_codebook(build_codebook(lat, [0.5, 0.5], shell, R=1.0))
    K, a = 3, 4.0
    tuples = 0
    exact = True
    for msgs in itertools.product(range(len(cb)), repeat=K):
        X = cb.codewords[list(msgs)]
        Y = X + a * (X.sum(axis=0) - X)  # zero noise
        for j in range(K):
            lam = X - cb.shift
            true_t = a * (lam.sum(axis=0) - lam[j])
            t_hat, m_hat = two_stage_decode(cb, a, K, Y[j])
            if not same_lattice_point(lat, t_hat, true_t, a) or m_hat != msgs[j]:
                exact = False
        tuples += 1
    report(7, "noiseless-exactness", exact,
           f"{tuples} message triples x {K} receivers, both stages exact")
    assert exact


# --------------------------------------------------------------- criterion 8


def test_criterion_8_finite_n_trends():
    t0 = time.perf_counter()
    trials = 10_000

    # (a) word error at a^2 = 8 strictly below a^2 = 2.5 (n=12, P=1,
    #     R = 0.9 * capacity, paired seeds)
    n, P = 12, 1.0
    c1 = interference_free_capacity(P)
    R = 0.9 * c1
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, (R + c1) / 2, shell.volume(), p=5, seed=0)
    _, cb = find_shift(lat, shell, R, trials=32, seed=0)
    errs_a = {}
    for a2 in (2.5, 8.0):
        rep = run_monte_carlo(
            ChannelConfig(K=3, a=math.sqrt(a2), seed=8001), cb,
            trials, mode="two_stage")
        errs_a[a2] = float(rep.msg_error_rate.mean())
    ok_a = errs_a[8.0] < errs_a[2.5]

    # (b) interference-decode error monotone decreasing in a^2 at fixed
    #     (n, P, R')
    n, P, Rp, R_b = 8, 1.0, 0.6, 0.25
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, Rp, shell.volume(), p=5, seed=0)
    _, cb = find_shift(lat, shell, R_b, trials=32, seed=0)
    errs_b = []
    for a2 in (4.0, 8.0, 16.0):
        rep = run_monte_carlo(
            ChannelConfig(K=3, a=math.sqrt(a2), seed=8002), cb,
            trials, mode="two_stage")
        errs_b.append(float(rep.intf_error_rate.mean()))
    ok_b = errs_b[0] > errs_b[1] > errs_b[2]

    # (c) lattice-only mode at a^2 = P+1, P = 4, R = 0.9 * (0.5 log2 P):
    #     error decreasing over n in {4, 8, 12}.  The shell must respect
    #     the full rate chain R < R' < 0.5*log2(1+P') < 0.5*log2(1+P),
    #     which at R = 0.9 forces P' > 2^1.8 - 1 ~ 2.48; P' = 3 satisfies
    #     it (0.9 < 0.95 < 1.0 < 1.16)
    P = 4.0
    R_c, Rp_c, Pp_c = 0.9 * 0.5 * math.log2(P), 0.95, 3.0
    errs_c = []
    for n in (4, 8, 12):
        shell = ShapingShell(n=n, P=P, P_prime=Pp_c)
        lat = design_lattice(n, Rp_c, shell.volume(), p=5, seed=0)
        _, cb = find_shift(lat, shell, R_c, trials=32, seed=0)
        rep = run_monte_carlo(
            ChannelConfig(K=3, a=math.sqrt(P + 1), seed=8003), cb,
            trials, mode="lattice_only")
        errs_c.append(float(rep.msg_error_rate.mean()))
    ok_c = errs_c[0] > errs_c[1] > errs_c[2]

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    report(8, "finite-n-trends", ok,
           f"(a) msg err a2=8: {errs_a[8.0]:.4f} < a2=2.5: {errs_a[2.5]:.4f}; "
           f"(b) intf err over a2 4/8/16: {[round(e, 4) for e in errs_b]}; "
           f"(c) msg err over n 4/8/12: {[round(e, 4) for e in errs_c]}; "
           f"{elapsed:.0f}s")
    assert ok_a, errs_a
    assert ok_b, errs_b
    assert ok_c, errs_c
    assert elapsed < 600.0


# --------------------------------------------------------------- criterion 9


def test_criterion_9_harness_determinism(tmp_path):
    cfg_text = (
        "name = det9\n"
        "subcommand = simulate\n"
        "K = 3\n"
        "a2 = 4, 16\n"
        "P = 1\n"
        "n = 4\n"
        "p = 3\n"
        "R_frac = 0.8\n"
        "trials = 60\n"
        "seed = 9\n"
    )
    hashes = {}
    for tag in ("run1", "run2", "run3", "run4"):
        out = tmp_path / tag
        spec = parse_config(cfg_text + f"out = {out}\n")
        run_experiment(spec)
        digest = {}
        for f in sorted(os.listdir(out)):
            if f.endswith(".csv"):
                digest[f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
        hashes[tag] = digest
    same = hashes["run1"] == hashes["run2"] == hashes["run3"] == hashes["run4"]
    report(9, "harness-determinism", same,
           f"{len(hashes['run1'])} CSV files byte-identical across 4 reruns")
    assert same, hashes


# -------------------------------------------------------------- criterion 10


def test_criterion_10_no_rate_penalty_once_stage1_right():
    # the very strong regime costs no rate: after a right stage 1 the residual
    # is x_j + z_j, so the two_stage receiver must decide what a receiver
    # without interference decides on the same draws [seed, 2, i]
    t0 = time.perf_counter()
    n, P, K, seed, trials = 8, 1.0, 3, 5, 1000
    c1 = interference_free_capacity(P)
    R = 0.9 * c1
    shell = ShapingShell(n=n, P=P, P_prime=P / 4)
    lat = design_lattice(n, (R + c1) / 2, shell.volume(), p=5, seed=seed)
    _, cb = find_shift(lat, shell, R, trials=32, seed=seed)
    mcb = message_codebook(cb)
    clean = run_monte_carlo(ChannelConfig(K=K, a=0.0, seed=seed), cb, trials,
                            mode="no_interference")
    draws = []  # (msgs, X, Z, no_interference decisions) of trial i
    for i in range(trials):
        rng = np.random.default_rng([seed, 2, i])
        msgs = rng.integers(0, mcb.message_count, size=K)
        X = mcb.codewords[msgs]
        Z = rng.standard_normal((K, n))
        m0 = np.array([nearest_codeword(mcb, y)[0] for y in channel_output(X, 0.0, Z)])
        draws.append((msgs, X, Z, m0))
    assert np.array_equal(sum(m0 != msgs for msgs, _, _, m0 in draws), clean.msg_errors)
    flips, equal_msg_errors = {}, []
    for a2 in (8.0, 64.0, 1e8):  # the residual loses ~log10(a) digits; stay at a^2 <= 1e8
        a = math.sqrt(a2)
        rep = run_monte_carlo(ChannelConfig(K=K, a=a, seed=seed), cb, trials)
        clean_err_intf_ok = np.zeros(K, dtype=np.int64)  # no_interference errs, stage 1 right
        flips[a2] = 0
        for msgs, X, Z, m0 in draws:
            Y = channel_output(X, a, Z)
            lam = X - mcb.shift
            for j in range(K):
                t_hat, m_hat = two_stage_decode(mcb, a, K, Y[j])
                if same_lattice_point(lat, t_hat, a * (lam.sum(axis=0) - lam[j]), a):
                    flips[a2] += m_hat != m0[j]
                    clean_err_intf_ok[j] += m0[j] != msgs[j]
        assert flips[a2] == 0, a2
        assert np.array_equal(rep.msg_errors_intf_ok, clean_err_intf_ok), a2
        if rep.intf_errors.sum() == 0:
            assert np.array_equal(rep.msg_errors, clean.msg_errors), a2
            equal_msg_errors.append(a2)
    elapsed = time.perf_counter() - t0
    first_flip = next((a2 for a2, f in flips.items() if f), None)
    ok = first_flip is None and bool(equal_msg_errors)
    report(10, "no-rate-penalty", ok,
           f"{trials} paired trials x {K} receivers at a^2 = {', '.join(f'{x:g}' for x in flips)}; "
           f"first a^2 with a flipped decision: {first_flip}; msg_errors equal to "
           f"no_interference at a^2 = {equal_msg_errors}; {elapsed:.2f}s")
    assert equal_msg_errors  # some a^2 has no stage-1 error


# -------------------------------------------------------------- criterion 11


def test_criterion_11_deterministic_condition_to_twelve_users_of_sixteen_bits():
    # the paper's very strong condition for the deterministic channel, charted
    # past criterion 3's grid: zero error iff n_c = 0 or n_c >= 2*n_d, with
    # every receiver ranked, up to K = 12 users of n_d = 16 bits (192 input bits)
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for K in (2, 3, 5, 8, 12):
        for n_d in (1, 2, 3, 5, 8, 16):
            for n_c in range(0, 3 * n_d + 1):
                got = det_capacity_check(DetChannelConfig(K=K, n_d=n_d, n_c=n_c))
                checked += 1
                if got != (n_c == 0 or n_c >= 2 * n_d):
                    mismatches.append((K, n_d, n_c, got))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and checked == 555 and elapsed < 2.0
    report(11, "deterministic-channel-at-size", ok,
           f"{checked} configs up to K = 12, n_d = 16, n_c = 48 decided by GF(2) rank, "
           f"{elapsed:.2f}s")
    assert not mismatches, mismatches
    assert checked == 555
    assert elapsed < 2.0
