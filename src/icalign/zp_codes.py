"""Linear codes over Z_p and the scaled mod-p lattices they generate.

A code C with a k x n generator matrix over Z_p lifts to the integer
lattice {v in Z^n : v mod p in C}; scaling by gamma > 0 gives a lattice
with fundamental volume gamma^n * p^(n-k).  These lattices are the seed
of every codebook in this package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Hard ceiling on p^k for codeword enumeration and coset-scan decoding.
ENUMERATION_CAP = 1 << 20

# Tolerance for "v/gamma is an integer vector" under float channel arithmetic.
INTEGRALITY_TOL = 1e-9

# rng substream tags; every consumer seeds with [master_seed, tag, index]
# so code sampling, shift search and Monte Carlo trials never collide.
CODE_STREAM = 0


class EnumerationTooLarge(ValueError):
    """An enumeration or decode would pass its cap constant."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % d for d in range(2, math.isqrt(m) + 1))


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a), p - 2, p)


def rref_mod_p(mat, p: int):
    """Reduced row echelon form over Z_p.

    Returns (rref, pivot_columns); the rank is len(pivot_columns).
    """
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * _inv_mod(m[r, c], p)) % p
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod_p(mat, p: int) -> int:
    return len(rref_mod_p(mat, p)[1])


def _parity_check(G: np.ndarray, p: int) -> np.ndarray:
    """(n-k) x n matrix H with c in rowspace(G) iff H @ c = 0 mod p."""
    k, n = G.shape
    R, pivots = rref_mod_p(G, p)
    free = [c for c in range(n) if c not in pivots]
    H = np.zeros((n - k, n), dtype=np.int64)
    H[:, free] = np.eye(n - k, dtype=np.int64)
    if pivots:
        A = R[:, free]  # k x (n-k)
        H[:, pivots] = (-A.T) % p
    return H


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An (n, k) linear code over Z_p with explicit generator matrix.

    G is reduced mod p on construction and must have rank k over Z_p,
    so the codeword set {xG mod p} has exactly p^k elements.
    """

    p: int
    n: int
    k: int
    G: np.ndarray
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, n >= 1; got n={self.n}, k={self.k}")
        G = np.asarray(self.G, dtype=np.int64).reshape(self.k, self.n) % self.p
        object.__setattr__(self, "G", G)
        if rank_mod_p(G, self.p) != self.k:
            raise ValueError("generator matrix must have rank k over Z_p")
        object.__setattr__(self, "H", _parity_check(G, self.p))

    def contains(self, word) -> bool:
        """Membership via syndrome: word is a codeword iff H @ word = 0 mod p."""
        w = np.asarray(word, dtype=np.int64) % self.p
        if w.shape != (self.n,):
            raise ValueError(f"word length {w.shape} != n={self.n}")
        return not np.any((self.H @ w) % self.p)


@dataclass(frozen=True, eq=False)
class ConstructionALattice:
    """Scaled mod-p lattice gamma * {v in Z^n : v mod p in code}."""

    code: LinearCode
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def p(self) -> int:
        return self.code.p

    @property
    def k(self) -> int:
        return self.code.k


def enumerate_codewords(code: LinearCode) -> np.ndarray:
    """All p^k codewords as a (p^k, n) int array.

    Zero vector first; rows ordered lexicographically by message vector.
    Raises EnumerationTooLarge when p^k exceeds ENUMERATION_CAP.
    """
    count = code.p**code.k
    if count > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"p^k = {count} exceeds cap {ENUMERATION_CAP}")
    if code.k == 0:
        return np.zeros((1, code.n), dtype=np.int64)
    msgs = np.array(
        list(itertools.product(range(code.p), repeat=code.k)), dtype=np.int64
    )
    return (msgs @ code.G) % code.p


def lattice_coords(lat: ConstructionALattice, v, scale: float = 1.0) -> np.ndarray:
    """Integer coordinates rint(v / (|scale|*gamma)) of points of scale * gamma * Z^n.

    Two points of the lattice are equal iff their coordinates are; exact
    while every coordinate stays below 2^51 cells.
    """
    return np.rint(np.asarray(v, dtype=float) / (abs(scale) * lat.gamma)).astype(np.int64)


def same_lattice_point(lat: ConstructionALattice, u, v, scale: float = 1.0) -> bool:
    """True iff u and v are finite, below 2^51 cells at `scale`, with equal lattice_coords.

    The stage-1 verdict: exact at any scale.  A NaN, infinite or
    out-of-range coordinate matches nothing, not even itself: past 2^51
    cells a double no longer resolves half a cell, and past 2^63 the int64
    cast maps every coordinate (and NaN) to one value.
    """
    pts = np.asarray([u, v], dtype=float)
    if not np.abs(pts).max() < 2.0**51 * abs(scale) * lat.gamma:  # a NaN max compares False
        return False
    w = lattice_coords(lat, pts, scale)
    return w[0].tolist() == w[1].tolist()


def is_lattice_point(lat: ConstructionALattice, v, scale: float = 1.0) -> bool:
    """True iff v belongs to scale * gamma * Lambda_C.

    v / (scale*gamma) must be integral componentwise (within
    INTEGRALITY_TOL), below 2^51 cells as in same_lattice_point, and its
    mod-p reduction must be a codeword.  A NaN or infinite coordinate is
    no lattice point.  The lattice is symmetric, so a negative scale
    describes the same point set.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    v = np.asarray(v, dtype=float)
    if v.shape != (lat.n,):
        raise ValueError(f"vector length {v.shape} != n={lat.n}")
    r = v / (abs(scale) * lat.gamma)
    if not np.abs(r).max() < 2.0**51:  # a NaN max compares False
        return False
    w = np.rint(r)
    if np.abs(r - w).max() > INTEGRALITY_TOL:
        return False
    return lat.code.contains(w.astype(np.int64) % lat.p)


def fundamental_volume(lat: ConstructionALattice) -> float:
    """Volume of the Voronoi region: gamma^n * p^(n-k)."""
    return lat.gamma**lat.n * float(lat.p ** (lat.n - lat.k))


def sample_code(p: int, n: int, k: int, seed: int) -> LinearCode:
    """Random systematic (n, k) code over Z_p: G = [I_k | A], A uniform over Z_p.

    Systematic form forces rank k.  A is drawn from [seed, CODE_STREAM, 0],
    so the code is a function of (p, n, k, seed).  Bad arguments raise
    ValueError: LinearCode checks p and n, the draw rejects a negative
    seed and a k outside [0, n].
    """
    rng = np.random.default_rng([seed, CODE_STREAM, 0])
    A = rng.integers(0, p, size=(k, n - k))
    G = np.hstack([np.eye(k, dtype=np.int64), A.astype(np.int64)])
    return LinearCode(p=p, n=n, k=k, G=G)


def design_lattice(
    n: int,
    R_prime: float,
    V_S: float,
    p: int = 5,
    seed: int = 0,
) -> ConstructionALattice:
    """Construct a lattice whose fundamental volume is 2^(-n R') * V_S.

    k is the integer nearest to n - log_p(V_target), clamped to [0, n] and
    to p^k <= ENUMERATION_CAP (decode cost is p^k per nearest-point query);
    gamma absorbs all rounding so the volume identity holds to float precision.
    """
    if V_S <= 0:
        raise ValueError("V_S must be positive")
    if R_prime <= 0:
        raise ValueError("R_prime must be positive")
    V_target = 2.0 ** (-n * R_prime) * V_S
    k_ideal = n - math.log(V_target) / math.log(p)
    k = min(max(round(k_ideal), 0), n)
    while k > 0 and p**k > ENUMERATION_CAP:
        k -= 1
    gamma = (V_target / p ** (n - k)) ** (1.0 / n)
    code = sample_code(p, n, k, seed)
    return ConstructionALattice(code=code, gamma=gamma)


def lattice_to_text(lat: ConstructionALattice) -> str:
    """Flat key-value serialization: p, n, k, gamma, G row-major."""
    g_flat = ",".join(str(int(x)) for x in lat.code.G.reshape(-1))
    return (
        f"p = {lat.p}\n"
        f"n = {lat.n}\n"
        f"k = {lat.k}\n"
        f"gamma = {lat.gamma!r}\n"
        f"G = {g_flat}\n"
    )


def lattice_from_text(text: str) -> ConstructionALattice:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    p, n, k = int(fields["p"]), int(fields["n"]), int(fields["k"])
    gamma = float(fields["gamma"])
    if fields["G"]:
        G = np.array([int(x) for x in fields["G"].split(",")], dtype=np.int64)
    else:
        G = np.zeros(0, dtype=np.int64)
    code = LinearCode(p=p, n=n, k=k, G=G.reshape(k, n))
    return ConstructionALattice(code=code, gamma=gamma)
