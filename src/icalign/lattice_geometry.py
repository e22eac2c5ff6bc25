"""Shell shaping, exact closest-vector decoding and codebook construction.

The decoder scores all p^k codeword cosets of the lattice; within one coset
the nearest point is componentwise rounding, so each coordinate's p costs are
tabulated once and the exact global argmin costs one p^k x n gather and sum.
Codebooks are the shifted lattice intersected with a spherical shell between
radii sqrt(nP') and sqrt(nP).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .zp_codes import (
    ConstructionALattice,
    EnumerationTooLarge,
    enumerate_codewords,
    fundamental_volume,
    lattice_coords,
)

# Cap on candidate prefix rows materialised while enumerating one codebook.
CODEBOOK_ENUM_CAP = 1 << 24

SHIFT_STREAM = 1


def shell_volume(n: int, P: float, P_prime: float = 0.0) -> float:
    """Volume of {x in R^n : n*P' <= |x|^2 <= n*P}.

    c_n [(nP)^(n/2) - (nP')^(n/2)] with c_n = pi^(n/2) / Gamma(n/2 + 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not P > P_prime >= 0:
        raise ValueError(f"invalid shell: need P > P' >= 0, got P={P}, P'={P_prime}")
    c_n = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return c_n * ((n * P) ** (n / 2) - (n * P_prime) ** (n / 2))


@dataclass(frozen=True, eq=False)
class ShapingShell:
    """Spherical shell between radii sqrt(n*P') and sqrt(n*P)."""

    n: int
    P: float
    P_prime: float = 0.0

    def __post_init__(self):
        shell_volume(self.n, self.P, self.P_prime)  # validates

    @property
    def outer_radius(self) -> float:
        return math.sqrt(self.n * self.P)

    @property
    def inner_radius(self) -> float:
        return math.sqrt(self.n * self.P_prime)

    def volume(self) -> float:
        return shell_volume(self.n, self.P, self.P_prime)

    def contains(self, x) -> bool:
        r2 = float(np.sum(np.asarray(x, dtype=float) ** 2))
        return self.n * self.P_prime <= r2 <= self.n * self.P


# (codewords, p, flat index) of the last codeword array decoded against; holding
# the array itself keeps its id from being reused by another array.
_flat_index_memo: tuple = (None, 0, None)


def _flat_index(codewords: np.ndarray, p: int) -> np.ndarray:
    """(p^k, n) index j*p + c_j of each coset's coordinates into an (n, p) table."""
    global _flat_index_memo
    memo = _flat_index_memo  # read once: another thread may replace it
    if memo[0] is not codewords or memo[1] != p:
        words = np.asarray(codewords, dtype=np.intp)
        memo = _flat_index_memo = (codewords, p, words + p * np.arange(words.shape[1]))
    return memo[2]


def nearest_lattice_point(
    lat: ConstructionALattice,
    target,
    scale: float = 1.0,
    codewords: np.ndarray | None = None,
) -> np.ndarray:
    """Exact closest point of scale * gamma * Lambda_C to `target`.

    For each codeword c the per-coset minimizer is
    scale*gamma*(c + p*round((target/(scale*gamma) - c)/p)) componentwise;
    the global argmin over cosets is exact.  Coordinate j depends only on
    c_j, so each coset's squared distance sums entries of one (n, p) table.
    Ties break to the lexicographically smallest point.  `codewords` may
    carry a precomputed enumeration to amortize repeated decodes against one
    lattice; without it, enumerate_codewords raises EnumerationTooLarge past
    ENUMERATION_CAP.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    t = np.asarray(target, dtype=float)
    if t.shape != (lat.n,):
        raise ValueError(f"target length {t.shape} != n={lat.n}")
    if codewords is None:
        codewords = enumerate_codewords(lat.code)
    cell = abs(scale) * lat.gamma
    r = np.arange(lat.p)
    # nearest integer with exact halves rounded down, so tied minimizers stay lex-smallest
    cand = cell * (r + lat.p * np.ceil((t[:, None] / cell - r) / lat.p - 0.5))
    flat = _flat_index(codewords, lat.p)
    d2 = ((cand - t[:, None]) ** 2).ravel()[flat].sum(axis=1)
    best = np.flatnonzero(d2 == d2.min())
    rows = cand.ravel()[flat[best]]
    return rows[0] if best.size == 1 else rows[np.lexsort(rows.T[::-1])[0]]


def required_size(n: int, R: float) -> int:
    """Smallest codebook size achieving rate R over n uses: ceil(2^(nR))."""
    return int(math.ceil(2.0 ** (n * R) - 1e-9))


@dataclass(frozen=True, eq=False)
class Codebook:
    """Shifted lattice points inside a shaping shell, in lexicographic order.

    R is the target message rate, R_prime the lattice rate implied by the
    volume ratio V_S / V = 2^(n R').  A sound design keeps R < R'
    (rate_chain_ok); degenerate shells still build, they just flag it.
    `shortfall` flags a codebook smaller than ceil(2^(nR)).
    """

    lattice: ConstructionALattice
    shift: np.ndarray
    shell: ShapingShell
    codewords: np.ndarray
    R: float
    R_prime: float = field(init=False)
    rate_chain_ok: bool = field(init=False)
    shortfall: bool = field(init=False)

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float)
        pts = np.asarray(self.codewords, dtype=float).reshape(-1, self.lattice.n)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "codewords", pts)
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        V = fundamental_volume(self.lattice)
        R_prime = math.log2(self.shell.volume() / V) / self.lattice.n
        object.__setattr__(self, "R_prime", R_prime)
        object.__setattr__(self, "rate_chain_ok", self.R < R_prime)
        object.__setattr__(
            self, "shortfall", len(pts) < required_size(self.lattice.n, self.R)
        )

    def __len__(self) -> int:
        return len(self.codewords)

    @property
    def message_count(self) -> int:
        """Messages actually usable: min(|C|, ceil(2^(nR)))."""
        return min(len(self.codewords), required_size(self.lattice.n, self.R))

    def index_of(self, x) -> int | None:
        """Index of the codeword equal to x, else None.

        x must be a point of the shifted lattice gamma*Lambda_C + shift: it is
        matched by the integer coordinates lattice_coords(x - shift), so a
        vector off the lattice matches the point those coordinates round to.
        """
        table = getattr(self, "_index_table", None)
        if table is None:
            coords = lattice_coords(self.lattice, self.codewords - self.shift)
            table = {row.tobytes(): i for i, row in enumerate(coords)}
            object.__setattr__(self, "_index_table", table)
        return table.get(lattice_coords(self.lattice, x - self.shift).tobytes())


def build_codebook(
    lat: ConstructionALattice,
    shift,
    shell: ShapingShell,
    R: float,
) -> Codebook:
    """Enumerate (gamma*Lambda_C + shift) inside the shell, exactly.

    Fincke-Pohst over all cosets at once: prefixes grow one integer coordinate
    at a time through each coset's box around the outer ball and are dropped
    once their partial power passes nP; the full power alone decides shell
    membership.  Points come out sorted lexicographically.  Raises
    EnumerationTooLarge when the prefix rows materialised pass CODEBOOK_ENUM_CAP.
    """
    s = np.asarray(shift, dtype=float)
    if s.shape != (lat.n,) or shell.n != lat.n:
        raise ValueError("shift/shell dimension mismatch with lattice")
    cosets = enumerate_codewords(lat.code)
    g, p, n = lat.gamma, lat.p, lat.n
    r_out = shell.outer_radius
    lo = np.ceil((-r_out - s) / (g * p) - cosets / p - 1e-9).astype(np.int64)
    hi = np.floor((r_out - s) / (g * p) - cosets / p + 1e-9).astype(np.int64)
    bound = n * shell.P * (1 + 1e-9)  # slack: r2 below sums in another order
    coset = np.flatnonzero((hi >= lo).all(axis=1))  # one prefix row per live coset
    Z = np.zeros((len(coset), 0), dtype=np.int64)
    power = np.zeros(len(coset))
    made = 0
    for j in range(n):
        counts = hi[coset, j] - lo[coset, j] + 1
        made += int(counts.sum())
        if made > CODEBOOK_ENUM_CAP:
            raise EnumerationTooLarge(
                f"codebook enumeration passed {CODEBOOK_ENUM_CAP} candidate rows")
        parent = np.repeat(np.arange(len(coset)), counts)
        # rows stay sorted by (coset, z_0, .., z_j); the stable sort below keeps that on ties
        zj = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - lo[coset, j], counts)
        power_j = power[parent] + (g * (cosets[coset[parent], j] + p * zj) + s[j]) ** 2
        live = power_j <= bound
        parent = parent[live]
        coset, power = coset[parent], power_j[live]
        Z = np.column_stack([Z[parent], zj[live]])
    X = g * (cosets[coset] + p * Z) + s
    r2 = (X**2).sum(axis=1)
    keep = (r2 >= n * shell.P_prime) & (r2 <= n * shell.P)
    pts = X[keep]
    pts = pts[np.lexsort(pts.T[::-1])]
    return Codebook(lattice=lat, shift=s, shell=shell, codewords=pts, R=R)


def find_shift(
    lat: ConstructionALattice,
    shell: ShapingShell,
    R: float,
    trials: int = 64,
    seed: int = 0,
) -> tuple[np.ndarray, Codebook]:
    """Search random shifts in [0, gamma*p)^n for a codebook of >= 2^(nR) points.

    Returns the first shift that reaches the target size, else the largest
    codebook found (best effort; check Codebook.shortfall).  Deterministic
    given seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng([seed, SHIFT_STREAM])
    need = required_size(lat.n, R)
    best = None
    for _ in range(trials):
        s = rng.uniform(0.0, lat.gamma * lat.p, size=lat.n)
        cb = build_codebook(lat, s, shell, R)
        if len(cb) >= need:
            return s, cb
        if best is None or len(cb) > len(best[1]):
            best = (s, cb)
    return best


def message_codebook(cb: Codebook) -> Codebook:
    """The sub-codebook actually assigned to messages at rate R.

    Takes min(|C|, ceil(2^(nR))) codewords, evenly strided through the
    lexicographic order so the message set spreads across the shell
    instead of clustering in one corner.  Deterministic.
    """
    m = cb.message_count
    if m == len(cb):
        return cb
    idx = (np.arange(m) * len(cb)) // m
    return Codebook(
        lattice=cb.lattice,
        shift=cb.shift,
        shell=cb.shell,
        codewords=cb.codewords[idx],
        R=cb.R,
    )


def nearest_codeword(cb: Codebook, y) -> tuple[int, np.ndarray]:
    """Exhaustive nearest-neighbor decode; ties go to the smallest index."""
    if len(cb) == 0:
        raise ValueError("empty codebook")
    y = np.asarray(y, dtype=float)
    d2 = ((cb.codewords - y) ** 2).sum(axis=1)
    idx = int(np.argmin(d2))  # first minimum = smallest index
    return idx, cb.codewords[idx].copy()


def codebook_csv(cb: Codebook) -> str:
    """CSV text with one codeword per row, index first column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index"] + [f"x{i}" for i in range(cb.lattice.n)])
    for i, row in enumerate(cb.codewords):
        writer.writerow([i] + [repr(float(v)) for v in row])
    return buf.getvalue()
