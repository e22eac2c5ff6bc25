import math
import warnings

import numpy as np
import pytest

from icalign.gaussian_sim import decode_interference_sum
from icalign.lattice_geometry import nearest_lattice_point
from icalign.zp_codes import (
    ENUMERATION_CAP,
    ConstructionALattice,
    EnumerationTooLarge,
    LinearCode,
    design_lattice,
    enumerate_codewords,
    fundamental_volume,
    is_lattice_point,
    lattice_coords,
    lattice_from_text,
    lattice_to_text,
    rank_mod_p,
    same_lattice_point,
    sample_code,
)


def repetition_lattice(gamma=1.0):
    return ConstructionALattice(LinearCode(p=2, n=2, k=1, G=[[1, 1]]), gamma)


# ---------------------------------------------------------------- LinearCode


def test_linear_code_rejects_composite_p():
    with pytest.raises(ValueError):
        LinearCode(p=4, n=2, k=1, G=[[1, 1]])


def test_linear_code_rejects_rank_deficient_generator():
    with pytest.raises(ValueError):
        LinearCode(p=3, n=3, k=2, G=[[1, 2, 0], [2, 4, 0]])  # row2 = 2*row1 mod 3


def test_codeword_set_size_is_p_to_k():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, min(3, n) + 1))
        code = sample_code(p, n, k, int(rng.integers(1 << 30)))
        words = enumerate_codewords(code)
        assert len({tuple(w) for w in words}) == p**k


# ------------------------------------------------------- enumerate_codewords


def test_enumerate_repetition_code():
    code = LinearCode(p=2, n=2, k=1, G=[[1, 1]])
    assert enumerate_codewords(code).tolist() == [[0, 0], [1, 1]]


def test_enumerate_zero_code():
    code = LinearCode(p=3, n=4, k=0, G=np.zeros((0, 4), dtype=int))
    assert enumerate_codewords(code).tolist() == [[0, 0, 0, 0]]


def test_enumerate_full_code_is_whole_space():
    code = LinearCode(p=3, n=2, k=2, G=np.eye(2, dtype=int))
    words = enumerate_codewords(code)
    assert len(words) == 9
    assert {tuple(w) for w in words} == {(i, j) for i in range(3) for j in range(3)}
    assert words[0].tolist() == [0, 0]  # zero vector first


def test_enumerate_cap():
    code = LinearCode(p=2, n=21, k=21, G=np.eye(21, dtype=int))  # 2^21 > ENUMERATION_CAP
    with pytest.raises(EnumerationTooLarge, match=f"exceeds cap {ENUMERATION_CAP}"):
        enumerate_codewords(code)


# --------------------------------------------------------- is_lattice_point


def test_membership_repetition_code():
    lat = repetition_lattice()
    assert is_lattice_point(lat, [1, 1])
    assert not is_lattice_point(lat, [1, 0])
    assert is_lattice_point(lat, [2, 0])  # reduces to (0,0)


def test_membership_scaled():
    lat = repetition_lattice(gamma=0.5)
    assert is_lattice_point(lat, [0.5, 0.5])
    assert not is_lattice_point(lat, [0.5, 0.25])


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        is_lattice_point(repetition_lattice(), [1, 1, 1])


def test_membership_tolerates_float_noise():
    lat = repetition_lattice()
    assert is_lattice_point(lat, np.array([1.0, 1.0]) + 1e-12)
    assert not is_lattice_point(lat, [1.0, 1.001])


def test_same_lattice_point_needs_finite_points_below_2_51_cells():
    lat = repetition_lattice()
    nan = np.array([np.nan, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the guard answers before any int64 cast
        assert not same_lattice_point(lat, nan, nan)
        assert not same_lattice_point(lat, [1e30, 1.0], [-1e30, 1.0])
        assert not same_lattice_point(lat, [1e30, 1.0], [1e30, 1.0])
        assert not same_lattice_point(lat, [np.inf, 1.0], [np.inf, 1.0])
        assert same_lattice_point(lat, [3.0, -1.0], [3.0 + 1e-9, -1.0])
        assert not same_lattice_point(lat, [3.0, -1.0], [4.0, -1.0])
        # the bound counts cells at the given scale: 2^52 is 2^50 cells of 4*gamma
        assert same_lattice_point(lat, [2.0**52, 0.0], [2.0**52, 0.0], scale=4.0)
        assert not same_lattice_point(lat, [2.0**52, 0.0], [2.0**52, 0.0])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_is_lattice_point_needs_finite_points_below_2_51_cells(p, scale):
    lat = ConstructionALattice(sample_code(p, 2, 1, 0), 1.0)
    cells = scale * p * np.array([1.0, 0.0])  # p*e_0 reduces to the zero codeword
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the guard answers before any int64 cast
        assert not is_lattice_point(lat, [np.nan, np.nan], scale)
        assert not is_lattice_point(lat, [np.inf, 0.0], scale)
        assert not is_lattice_point(lat, [-np.inf, np.nan], scale)
        assert not is_lattice_point(lat, 2.0**52 * cells, scale)
        assert is_lattice_point(lat, 2.0**48 * cells, scale)


@pytest.mark.parametrize("scale", [0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [
    (lambda lat, v, s: lattice_coords(lat, v, s), "scale"),
    (lambda lat, v, s: same_lattice_point(lat, v, v, s), "scale"),
    (lambda lat, v, s: is_lattice_point(lat, v, s), "scale"),
    (lambda lat, v, s: nearest_lattice_point(lat, v, s), "scale"),
    (lambda lat, v, s: decode_interference_sum(lat, s, v, 3, v), "a"),
], ids=["lattice_coords", "same_lattice_point", "is_lattice_point", "nearest_lattice_point",
        "decode_interference_sum"])
def test_a_zero_nan_or_infinite_scale_raises_naming_it(call, name, scale):
    lat = repetition_lattice()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any division or int64 cast
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonzero"):
            call(lat, np.zeros(2), scale)


def test_volume_examples():
    assert fundamental_volume(repetition_lattice()) == 2.0
    lat = ConstructionALattice(LinearCode(p=3, n=2, k=1, G=[[1, 2]]), gamma=0.5)
    assert fundamental_volume(lat) == pytest.approx(0.75, rel=1e-15)
    full = ConstructionALattice(LinearCode(p=3, n=2, k=2, G=np.eye(2, dtype=int)), gamma=0.7)
    assert fundamental_volume(full) == pytest.approx(0.7**2, rel=1e-15)


def test_volume_formula_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        gamma = float(rng.uniform(0.1, 3.0))
        code = sample_code(p, n, k, 3)
        lat = ConstructionALattice(code, gamma)
        expected = math.exp(n * math.log(gamma) + (n - k) * math.log(p))
        assert fundamental_volume(lat) == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- sample_code


def test_sample_code_deterministic():
    a = sample_code(5, 6, 3, 4)
    b = sample_code(5, 6, 3, 4)
    assert np.array_equal(a.G, b.G)
    c = sample_code(5, 6, 3, 5)
    assert not np.array_equal(a.G, c.G)


@pytest.mark.parametrize("p, n, k, seed", [(4, 3, 1, 0), (5, 3, 4, 0), (5, 3, -1, 0),
                                           (5, 3, 1, -1), (5, 0, 0, 0)])
def test_sample_code_rejects_bad_arguments(p, n, k, seed):
    with pytest.raises(ValueError):
        sample_code(p, n, k, seed)


def test_design_lattice_draws_the_code_of_its_seed():
    lat = design_lattice(n=6, R_prime=0.5, V_S=50.0, p=5, seed=9)
    assert np.array_equal(lat.code.G, sample_code(5, 6, lat.k, 9).G)


def test_sample_code_systematic_and_full_rank():
    for seed in range(1000):
        code = sample_code(3, 5, 2, seed)
        assert np.array_equal(code.G[:, :2], np.eye(2, dtype=int))
        assert rank_mod_p(code.G, 3) == 2


def test_sample_code_coverage_uniform_over_reachable_vectors():
    # Exhaustive count at p=2, n=4, k=2 over 500 samples.  A systematic
    # code contains each nonzero (x, x@A) exactly once, so a vector is
    # coverable iff its first k coordinates are nonzero; each coverable
    # vector appears with probability p^-(n-k) = 1/4 per sample.
    p, n, k, samples = 2, 4, 2, 500
    counts = {}
    for seed in range(samples):
        words = enumerate_codewords(sample_code(p, n, k, seed))
        nonzero = [tuple(w) for w in words if any(w)]
        assert len(nonzero) == p**k - 1
        for w in nonzero:
            counts[w] = counts.get(w, 0) + 1
    assert sum(counts.values()) == samples * (p**k - 1)
    expected = samples / p ** (n - k)  # 125
    for v in counts:
        assert v[:k] != (0,) * k  # unreachable vectors never covered
        assert abs(counts[v] - expected) < 45  # ~4.6 sigma
    reachable = (p**k - 1) * p ** (n - k)
    assert len(counts) == reachable


# ------------------------------------------------------------ design_lattice


def test_design_lattice_exact_example():
    lat = design_lattice(n=2, R_prime=1.0, V_S=8.0, p=2)
    assert lat.k == 1
    assert lat.gamma == pytest.approx(1.0, rel=1e-12)
    assert fundamental_volume(lat) == pytest.approx(2.0, rel=1e-12)


def test_design_lattice_volume_target():
    lat = design_lattice(n=4, R_prime=0.5, V_S=16.0, p=2)
    assert fundamental_volume(lat) == pytest.approx(4.0, rel=1e-9)


def test_design_lattice_round_trip_randomized():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        R_prime = float(rng.uniform(0.1, 2.0))
        V_S = float(rng.uniform(0.5, 1e6))
        p = int(rng.choice([2, 3, 5, 7]))
        lat = design_lattice(n, R_prime, V_S, p=p)
        target = 2.0 ** (-n * R_prime) * V_S
        assert fundamental_volume(lat) == pytest.approx(target, rel=1e-9)
        assert 0 <= lat.k <= n


def test_design_lattice_respects_cost_cap():
    # the volume asks for k = 10; the cap leaves the largest k with 5^k <= 2^20
    lat = design_lattice(n=10, R_prime=2.0, V_S=1.0, p=5)
    assert lat.k == 8
    assert 5**8 <= ENUMERATION_CAP < 5**9


# ------------------------------------------------------ closure / coset sets


def random_lattice_member(lat, rng):
    words = enumerate_codewords(lat.code)
    c = words[rng.integers(len(words))]
    z = rng.integers(-3, 4, size=lat.n)
    return lat.gamma * (c + lat.p * z)


def test_closure_under_addition_and_negation():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, min(3, n) + 1))
        gamma = float(rng.uniform(0.2, 2.0))
        code = sample_code(p, n, k, int(rng.integers(1 << 30)))
        lat = ConstructionALattice(code, gamma)
        u = random_lattice_member(lat, rng)
        v = random_lattice_member(lat, rng)
        assert is_lattice_point(lat, u + v)
        assert is_lattice_point(lat, -u)


def test_coset_membership_consistency():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, min(3, n) + 1))
        gamma = float(rng.uniform(0.2, 2.0))
        code = sample_code(p, n, k, int(rng.integers(1 << 30)))
        lat = ConstructionALattice(code, gamma)
        member = random_lattice_member(lat, rng)
        assert is_lattice_point(lat, member)
        # any integer vector not reducing to a codeword must fail
        w = rng.integers(0, p, size=n)
        if not code.contains(w):
            z = rng.integers(-3, 4, size=n)
            assert not is_lattice_point(lat, gamma * (w + p * z))


# ------------------------------------------------------------- serialization


def test_lattice_text_round_trip():
    lat = design_lattice(n=5, R_prime=0.7, V_S=123.0, p=3, seed=8)
    text = lattice_to_text(lat)
    back = lattice_from_text(text)
    assert back.p == lat.p and back.n == lat.n and back.k == lat.k
    assert back.gamma == lat.gamma
    assert np.array_equal(back.code.G, lat.code.G)
