import math
import sys
import threading

import numpy as np
import pytest
from oracles import box_scan_codebook, brute_force_nearest, coset_scan_nearest

from icalign import lattice_geometry
from icalign.lattice_geometry import (
    CODEBOOK_ENUM_CAP,
    ShapingShell,
    build_codebook,
    codebook_csv,
    find_shift,
    nearest_codeword,
    nearest_lattice_point,
    required_size,
)
from icalign.zp_codes import (
    ConstructionALattice,
    EnumerationTooLarge,
    LinearCode,
    enumerate_codewords,
    fundamental_volume,
    sample_code,
)


def repetition_lattice(gamma=1.0):
    return ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), gamma)


def integer_lattice(n, p=2, gamma=1.0):
    return ConstructionALattice(LinearCode(p=p, n=n, k=n, G=np.eye(n, dtype=int)), gamma)


def random_lattice(rng, p_choices=(2, 3, 5), n_max=6, k_max=3):
    p = int(rng.choice(p_choices))
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(0, min(k_max, n) + 1))
    gamma = float(rng.uniform(0.4, 1.6))
    code = sample_code(p, n, k, int(rng.integers(1 << 30)))
    return ConstructionALattice(code, gamma)


# ------------------------------------------------------------- ShapingShell


def test_shell_volume_disk():
    assert ShapingShell(2, 1.0, 0.0).volume() == pytest.approx(2 * math.pi, rel=1e-12)


def test_shell_volume_annulus():
    assert ShapingShell(2, 1.0, 0.5).volume() == pytest.approx(math.pi, rel=1e-12)


def test_shell_volume_two_intervals():
    assert ShapingShell(1, 4.0, 1.0).volume() == pytest.approx(2.0, rel=1e-12)


def test_shell_volume_invalid():
    with pytest.raises(ValueError):
        ShapingShell(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        ShapingShell(n=3, P=0.5, P_prime=0.7)


def test_shell_contains_is_inclusive():
    shell = ShapingShell(n=2, P=2.0, P_prime=0.5)
    assert shell.contains([2.0, 0.0])  # |x|^2 = nP exactly
    assert shell.contains([1.0, 0.0])  # |x|^2 = nP' exactly
    assert not shell.contains([2.1, 0.0])
    assert not shell.contains([0.5, 0.0])


# ------------------------------------------------------ nearest_lattice_point


def test_cvp_integer_lattice_rounding():
    lat = integer_lattice(2, p=3)
    assert nearest_lattice_point(lat, [0.6, 0.2]).tolist() == [1.0, 0.0]


def test_cvp_fixed_point_is_itself():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lat = random_lattice(rng)
        words = enumerate_codewords(lat.code)
        c = words[rng.integers(len(words))]
        v = lat.gamma * (c + lat.p * rng.integers(-2, 3, size=lat.n))
        out = nearest_lattice_point(lat, v)
        assert np.allclose(out, v, atol=1e-12)


def test_cvp_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    code = sample_code(3, 3, 1, 4)
    lat = ConstructionALattice(code, 0.8)
    for _ in range(100):
        t = rng.uniform(-1.5, 1.5, size=3) * lat.gamma * lat.p
        got = nearest_lattice_point(lat, t)
        want, want_d2 = brute_force_nearest(lat, t)
        got_d2 = float(((got - t) ** 2).sum())
        assert got_d2 == pytest.approx(want_d2, rel=1e-12, abs=1e-12)
        assert np.allclose(got, want, atol=1e-9)


def test_cvp_translation_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        lat = random_lattice(rng)
        words = enumerate_codewords(lat.code)
        w = lat.gamma * (words[rng.integers(len(words))] + lat.p * rng.integers(-2, 3, size=lat.n))
        t = rng.normal(size=lat.n)
        a = nearest_lattice_point(lat, t + w)
        b = w + nearest_lattice_point(lat, t)
        assert np.allclose(a, b, atol=1e-9)


def test_cvp_scale_consistency():
    rng = np.random.default_rng(29)
    for _ in range(50):
        lat = random_lattice(rng)
        t = rng.normal(size=lat.n) * 3
        s = float(rng.uniform(0.5, 4.0))
        a = nearest_lattice_point(lat, t, scale=s)
        b = s * nearest_lattice_point(lat, t / s, scale=1.0)
        assert np.allclose(a, b, atol=1e-9)


def test_cvp_cost_cap():
    lat = integer_lattice(21, p=2)  # p^k = 2^21 > ENUMERATION_CAP
    with pytest.raises(EnumerationTooLarge):
        nearest_lattice_point(lat, np.zeros(21))


def test_cvp_tie_breaks_lexicographically():
    lat = integer_lattice(2, p=2)
    # (0.5, 0.5) is equidistant from four integer points; smallest wins
    assert nearest_lattice_point(lat, [0.5, 0.5]).tolist() == [0.0, 0.0]
    assert nearest_lattice_point(lat, [-0.5, 0.5]).tolist() == [-1.0, 0.0]


def cvp_cases(seed):
    """Seeded (lattice, codewords, scale, targets) cases full of ties."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 1, 1), (2, 4, 4), (3, 6, 2), (7, 3, 3), (5, 12, 5), (5, 12, 5),
              (2, 12, 11), (2, 12, 11), (3, 12, 7), (7, 6, 4), (5, 8, 0)]
    shapes += [(int(rng.choice([2, 3, 5, 7])), n, int(rng.integers(0, 4)))
               for n in rng.integers(3, 13, size=6)]
    lattices = [ConstructionALattice(sample_code(p, n, k, int(rng.integers(1 << 30))),
                                     float(rng.uniform(0.4, 1.6))) for p, n, k in shapes]
    # non-systematic full-rank generator over Z_5
    lattices.append(ConstructionALattice(
        LinearCode(p=5, n=5, k=3, G=[[2, 1, 0, 3, 4], [1, 3, 4, 0, 2], [0, 2, 1, 1, 3]]), 0.9))
    for lat in lattices:
        words = enumerate_codewords(lat.code)
        for scale in (1.0, -1.0, 2.5, -0.7):
            cell = abs(scale) * lat.gamma

            def point():
                return words[rng.integers(len(words))] + lat.p * rng.integers(-2, 3, size=lat.n)

            targets = []
            for _ in range(3):
                targets.append(cell * (rng.integers(-3, 4, size=lat.n)
                                       + 0.5 * rng.integers(0, 2, size=lat.n)))
                targets.append(cell * (point() + point()) / 2.0)
                targets.append(cell * point())
                targets.append(cell * lat.p * rng.standard_normal(lat.n))
            yield lat, words, scale, targets


def test_cvp_equals_coset_scan_byte_for_byte():
    cases = list(cvp_cases(97))
    for lat, words, scale, targets in cases:
        for t in targets:
            want = coset_scan_nearest(lat, t, scale).tobytes()
            assert nearest_lattice_point(lat, t, scale).tobytes() == want
    # alternate two lattices through the coset memo; some pairs share p, n and k
    for (lat_a, words_a, sa, ta), (lat_b, words_b, sb, tb) in zip(cases, cases[4:]):
        for x, y in zip(ta, tb):
            got_a = nearest_lattice_point(lat_a, x, sa)
            got_b = nearest_lattice_point(lat_b, y, sb)
            assert got_a.tobytes() == coset_scan_nearest(lat_a, x, sa, words_a).tobytes()
            assert got_b.tobytes() == coset_scan_nearest(lat_b, y, sb, words_b).tobytes()

    # two threads decoding different lattices at once, switching as often as possible
    big = [c for c in cases if c[0].p ** c[0].k == 3125 and c[2] == 2.5]
    want = [[coset_scan_nearest(lat, t, scale).tobytes() for t in targets]
            for lat, _, scale, targets in big]
    got = [[], []]

    def decode(i):
        lat, _, scale, targets = big[i]
        for _ in range(5):
            got[i].append([nearest_lattice_point(lat, t, scale).tobytes() for t in targets])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(big) == 2 and want[0] != want[1]
    assert got == [[want[0]] * 5, [want[1]] * 5]


def test_rescore_recovers_a_minimum_the_fast_score_misorders():
    # row a costs 1 and eleven half-ulps, row b 1 + 3 ulps and zeros.  Added
    # coordinate by coordinate a's half-ulps round away (a = 1 < b); the
    # scan's contiguous row sum keeps them (a = 1 + 4 ulps > b).  A slack
    # under 3 ulps would drop b before the re-score.
    n, eps = 12, math.ulp(1.0)
    cost = np.array([[1.0, 1 + 3 * eps]] + [[eps / 2, 0.0]] * (n - 1)).ravel()
    index = 2 * np.arange(n)[:, None] + np.arange(2)
    points = np.arange(2.0 * n)
    row_a, row_b = cost[index.T]
    assert sum(row_a) < sum(row_b) and row_a.sum() > row_b.sum()
    assert lattice_geometry._lex_argmin(cost, points, index).tolist() == list(range(1, 2 * n, 2))


def near_tie_cases():
    """(lattice, words, scale, targets) whose targets sit a few ulps off a tie.

    Two kinds of target, both equidistant from two lattice points u and
    u + d in real arithmetic.  One in three is the midpoint u + d/2 for a
    shortest d, nudged by up to four ulps in one or two coordinates.  The
    rest are u + d/2 + e for a short d and e orthogonal to d: their squared
    distances have full mantissas, so summing them in another order can
    reorder the two points.
    """
    rng = np.random.default_rng(2357)
    systematic = sample_code(5, 12, 5, 23)
    mix = np.triu(rng.integers(0, 5, size=(5, 5)), 1) + np.eye(5, dtype=np.int64)
    scrambled = LinearCode(p=5, n=12, k=5, G=(mix @ systematic.G % 5)[:, rng.permutation(12)])
    lattices = [ConstructionALattice(systematic, 0.83), ConstructionALattice(scrambled, 1.21),
                ConstructionALattice(LinearCode(p=5, n=5, k=3, G=[[2, 1, 0, 3, 4], [1, 3, 4, 0, 2],
                                                                [0, 2, 1, 1, 3]]), 0.9)]
    for lat in lattices:
        p, n = lat.p, lat.n
        words = enumerate_codewords(lat.code)
        reps = (words + p // 2) % p - p // 2  # shortest vector of each coset of p*Z^n
        short = np.vstack([reps[1:], p * np.eye(n, dtype=np.int64)])
        norms = (short**2).sum(axis=1)
        shortest = short[norms == norms.min()]
        near = short[np.argsort(norms, kind="stable")[:40]]
        for scale in (1.0, -0.7, -316.0, 1e4, -1e4):  # a^2 up to 1e8
            cell = abs(scale) * lat.gamma
            targets = []
            for i in range(60):
                u = words[rng.integers(len(words))] + p * rng.integers(-3, 4, size=n)
                if i % 3 == 0:
                    d = shortest[rng.integers(len(shortest))] * rng.choice([-1, 1])
                    t = cell * (u + d / 2)
                    for j in rng.choice(n, size=rng.integers(1, 3), replace=False):
                        for _ in range(rng.integers(0, 5)):
                            t[j] = np.nextafter(t[j], rng.choice([-np.inf, np.inf]))
                else:
                    d = near[rng.integers(len(near))]
                    e = rng.uniform(-0.1, 0.1, size=n)
                    t = cell * (u + d / 2 + e - d * (e @ d) / (d @ d))
                targets.append(t)
            yield lat, words, scale, targets


def test_cvp_near_ties_equal_coset_scan_byte_for_byte():
    kept_two = fast_alone_wrong = 0
    for lat, words, scale, targets in near_tie_cases():
        cell = abs(scale) * lat.gamma
        for t in targets:
            want = coset_scan_nearest(lat, t, scale, words)
            assert nearest_lattice_point(lat, t, scale).tobytes() == want.tobytes()
            # the decoder's fast score sums coordinate by coordinate; count
            # the cosets it keeps within its slack, and whether its minimum
            # alone would have picked another point than the scan
            cand = cell * (words + lat.p * np.ceil((t / cell - words) / lat.p - 0.5))
            cost = (cand - t) ** 2
            fast = sum(cost[:, j] for j in range(lat.n))
            kept_two += np.sum(fast <= fast.min() * (1 + 4 * lat.n * math.ulp(1.0))) >= 2
            tied = cand[fast == fast.min()]
            fast_alone_wrong += tied[np.lexsort(tied.T[::-1])[0]].tobytes() != want.tobytes()
    assert kept_two >= 600  # of 900 targets: the exact re-score runs on most
    assert fast_alone_wrong >= 3  # and on some it changes the answer (5 here)


# ------------------------------------------------------------ build_codebook


def test_codebook_known_tiny_case():
    # p=2 repetition lattice, shift (.5,.5), outer power 2: frozen by a
    # direct grid scan over integer vectors
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    expected = [
        [-1.5, 0.5], [-0.5, -0.5], [-0.5, 1.5],
        [0.5, -1.5], [0.5, 0.5], [1.5, -0.5],
    ]
    assert cb.codewords.tolist() == expected
    assert not cb.shortfall
    # independent oracle: scan the integer grid directly
    scan = []
    for v0 in range(-6, 7):
        for v1 in range(-6, 7):
            if (v0 - v1) % 2 == 0:  # repetition code: equal coords mod 2
                x = np.array([v0 + 0.5, v1 + 0.5])
                if (x**2).sum() <= 2 * 2.0:
                    scan.append(x.tolist())
    assert sorted(scan) == expected


def test_codebook_empty_when_shell_too_small():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=0.05, P_prime=0.0)
    cb = build_codebook(lat, [1.0, 0.0], shell, R=0.0)
    assert len(cb) == 0
    assert cb.shortfall


def test_codebook_count_monotone_in_P():
    lat = repetition_lattice()
    shift = [0.3, 0.7]
    sizes = []
    for P in [0.5, 1.0, 2.0, 4.0, 8.0]:
        cb = build_codebook(lat, shift, ShapingShell(n=2, P=P, P_prime=0.0), R=0.1)
        sizes.append(len(cb))
    assert sizes == sorted(sizes)


def test_codebook_members_satisfy_invariants():
    rng = np.random.default_rng(37)
    from icalign.zp_codes import is_lattice_point

    for _ in range(20):
        lat = random_lattice(rng, n_max=4)
        n = lat.n
        P = float(rng.uniform(1.0, 6.0))
        shell = ShapingShell(n=n, P=P, P_prime=P / 4)
        s = rng.uniform(0, lat.gamma * lat.p, size=n)
        cb = build_codebook(lat, s, shell, R=0.05)
        for x in cb.codewords:
            assert (x**2).sum() <= n * P + 1e-9  # power constraint
            assert shell.contains(x)
            assert is_lattice_point(lat, x - s)


def test_codebook_equals_box_scan_byte_for_byte():
    # random small lattices, shells with and without P', a third of the
    # shifts on the half-grid (points exactly on a sphere), some empty shells
    rng = np.random.default_rng(2002)
    sizes = []
    for trial in range(300):
        lat = random_lattice(rng, p_choices=(2, 3, 5, 7), n_max=5)
        n, g, p = lat.n, lat.gamma, lat.p
        P = float(rng.choice([0.02, rng.uniform(0.2, 3.0)], p=[0.1, 0.9]))
        if trial % 3 == 0:  # half-grid shift, outer sphere through a lattice point
            s = g * rng.integers(0, 2 * p, size=n) / 2.0
            words = enumerate_codewords(lat.code)
            x = g * (words[rng.integers(len(words))] + p * rng.integers(-1, 2, size=n)) + s
            P = float((x**2).sum()) / n or P
        else:
            s = rng.uniform(0, g * p, size=n)
        shell = ShapingShell(n=n, P=P, P_prime=float(rng.choice([0.0, P * rng.uniform(0.1, 0.9)])))
        ref = box_scan_codebook(lat, s, shell)
        got = build_codebook(lat, s, shell, R=0.1).codewords
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        sizes.append(len(ref))
    assert min(sizes) == 0 and max(sizes) > 100  # empty and populous shells both covered


def test_codebook_enum_cap_counts_rows():
    # two cosets of ~10^7 candidate rows each; the cap trips before any is made
    lat = integer_lattice(1, p=2, gamma=1e-7)
    shell = ShapingShell(n=1, P=1.0, P_prime=0.0)
    assert CODEBOOK_ENUM_CAP == 16777216
    with pytest.raises(EnumerationTooLarge, match="passed 16777216 candidate rows"):
        build_codebook(lat, [0.0], shell, R=0.1)


def test_codebook_flags_rate_chain_violation():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    # R' = log2(V_S/V)/n ~ 1.33; R above it is flagged, not fatal
    cb = build_codebook(lat, [0.5, 0.5], shell, R=2.0)
    assert not cb.rate_chain_ok
    assert cb.shortfall
    ok = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    assert ok.rate_chain_ok


# --------------------------------------------------------------- find_shift


def test_find_shift_deterministic():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    s1, cb1 = find_shift(lat, shell, R=1.0, trials=16, seed=5)
    s2, cb2 = find_shift(lat, shell, R=1.0, trials=16, seed=5)
    assert np.array_equal(s1, s2)
    assert np.array_equal(cb1.codewords, cb2.codewords)


def test_find_shift_rate_zero_needs_single_point():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=1.0, P_prime=0.0)
    s, cb = find_shift(lat, shell, R=0.0, trials=32, seed=1)
    assert len(cb) >= 1
    assert not cb.shortfall


def test_mean_codebook_size_matches_volume_ratio():
    # Monte Carlo average over 200 random shifts vs V_S / V at n=4
    rng = np.random.default_rng(41)
    code = sample_code(3, 4, 2, 6)
    lat = ConstructionALattice(code, 1.0)
    shell = ShapingShell(n=4, P=4.0, P_prime=1.0)
    sizes = []
    for _ in range(200):
        s = rng.uniform(0, lat.gamma * lat.p, size=4)
        sizes.append(len(build_codebook(lat, s, shell, R=0.1)))
    expected = shell.volume() / fundamental_volume(lat)
    assert abs(np.mean(sizes) - expected) / expected < 0.10


# ----------------------------------------------------------- nearest_codeword


def test_nearest_codeword_exact_hit():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    for i, x in enumerate(cb.codewords):
        idx, word = nearest_codeword(cb, x)
        assert idx == i
        assert np.array_equal(word, x)


def test_nearest_codeword_tie_prefers_smaller_index():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    # origin is equidistant from codewords 1 and 4 ((-.5,-.5) and (.5,.5))
    # and farther from every other; the smaller index wins
    y = np.zeros(2)
    d = ((cb.codewords - y) ** 2).sum(axis=1)
    assert d[1] == d[4] == d.min()
    idx, _ = nearest_codeword(cb, y)
    assert idx == 1


def test_nearest_codeword_matches_reverse_scan():
    rng = np.random.default_rng(43)
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=4.0, P_prime=0.0)
    cb = build_codebook(lat, [0.25, 0.75], shell, R=1.0)
    for _ in range(100):
        y = rng.normal(size=2) * 2
        idx, _ = nearest_codeword(cb, y)
        # independent scan in reversed order keeping the last (= lowest) tie
        best, best_d = None, None
        for j in range(len(cb) - 1, -1, -1):
            d = float(((cb.codewords[j] - y) ** 2).sum())
            if best_d is None or d < best_d or d == best_d:
                best, best_d = j, d
        assert idx == best


def test_nearest_codeword_empty_raises():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=0.05, P_prime=0.0)
    cb = build_codebook(lat, [1.0, 0.0], shell, R=0.0)
    with pytest.raises(ValueError):
        nearest_codeword(cb, [0.0, 0.0])


# ---------------------------------------------------------------- csv export


def test_codebook_csv():
    lat = repetition_lattice()
    shell = ShapingShell(n=2, P=2.0, P_prime=0.0)
    cb = build_codebook(lat, [0.5, 0.5], shell, R=1.0)
    lines = codebook_csv(cb).strip().splitlines()
    assert lines[0] == "index,x0,x1"
    assert len(lines) == 1 + len(cb)
    assert lines[1].split(",")[0] == "0"


def test_required_size():
    assert required_size(4, 0.0) == 1
    assert required_size(4, 0.5) == 4
    assert required_size(2, 1.0) == 4
