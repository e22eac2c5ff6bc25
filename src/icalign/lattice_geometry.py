"""Shell shaping, exact closest-vector decoding and codebook construction.

The decoder scores all p^k codeword cosets of the lattice; within one coset
the nearest point is componentwise rounding, so each coordinate's p costs are
tabulated once, a coordinate-major gather scores every coset, and the cosets
near the minimum are re-scored in the coset scan's order to keep it exact.
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
    _cell,
    enumerate_codewords,
    fundamental_volume,
    lattice_coords,
)

# Cap on candidate prefix rows materialised while enumerating one codebook.
CODEBOOK_ENUM_CAP = 1 << 24

SHIFT_STREAM = 1


@dataclass(frozen=True, eq=False)
class ShapingShell:
    """Spherical shell between radii sqrt(n*P') and sqrt(n*P)."""

    n: int
    P: float
    P_prime: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.P > self.P_prime >= 0:
            raise ValueError(f"invalid shell: need P > P' >= 0, got P={self.P}, P'={self.P_prime}")

    @property
    def outer_radius(self) -> float:
        return math.sqrt(self.n * self.P)

    def volume(self) -> float:
        """c_n [(nP)^(n/2) - (nP')^(n/2)] with c_n = pi^(n/2) / Gamma(n/2 + 1)."""
        n = self.n
        c_n = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        return c_n * ((n * self.P) ** (n / 2) - (n * self.P_prime) ** (n / 2))

    def contains(self, x) -> bool:
        r2 = float(np.sum(np.asarray(x, dtype=float) ** 2))
        return self.n * self.P_prime <= r2 <= self.n * self.P


# (lattice, codewords, gather index) of the last lattice whose cosets were tabulated.
# Holding the lattice keeps its id from being reused by another lattice.  One
# entry, not a cache on the lattice: callers keep codebooks (and their lattices)
# alive, and every table they kept would stay in memory with them.
_coset_memo: tuple = (None, None, None)


def _coset_table(lat: ConstructionALattice) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (codewords, gather index) of lat's p^k cosets, built on first use.

    codewords is enumerate_codewords(lat.code); the gather index is a
    C-contiguous (n, p^k) intp array, index[j, i] = j*p + codewords[i, j]:
    coset i's entry for coordinate j in a flattened (n, p) table.
    """
    global _coset_memo
    memo = _coset_memo  # read once: another thread may replace it
    if memo[0] is not lat:
        words = enumerate_codewords(lat.code)
        index = np.ascontiguousarray(words.T + lat.p * np.arange(lat.n)[:, None], np.intp)
        words.flags.writeable = index.flags.writeable = False
        memo = _coset_memo = (lat, words, index)
    return memo[1], memo[2]


def _lex_argmin(cost: np.ndarray, points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The gathered row of least cost sum, lexicographically smallest on ties.

    Row i is points[index[:, i]] and costs the sum of cost[index[:, i]], n
    nonnegative terms.  A fast score sums the rows coordinate by coordinate;
    the rows it keeps near its minimum are re-scored by the coset scan's
    contiguous row sum, so minimum, ties and result are the scan's bit for bit.
    """
    n = len(index)
    fast = cost[index].sum(axis=0)  # np.take would copy the read-only index first
    # Summed in any order, n nonnegative terms are within a factor 1 +- g of
    # their exact sum, g ~ (n-1)*eps/2.  A row at the scan's minimum thus has
    # fast <= min(fast) * (1+g)^2/(1-g)^2 ~ min(fast) * (1 + 2*(n-1)*eps), and
    # 4*n*eps covers that with room for rounding the product.
    (keep,) = (fast <= fast.min() * (1 + 4 * n * math.ulp(1.0))).nonzero()
    if keep.size == 1:
        return points[index[:, keep[0]]]
    cols = index[:, keep].T
    exact = np.ascontiguousarray(cost[cols]).sum(axis=1)  # the scan's row sum
    rows = points[cols[exact == exact.min()]]
    return rows[0] if len(rows) == 1 else rows[np.lexsort(rows.T[::-1])[0]]


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
    c_j, so each coset's squared distance sums entries of one (n, p) table
    (_lex_argmin).  Ties break to the lexicographically smallest point.  The
    cosets come from _coset_table, which enumerates them once per lattice
    (one lattice at a time) and raises EnumerationTooLarge past
    ENUMERATION_CAP.  A NaN or infinite target, or a zero, NaN or
    infinite scale, raises ValueError.
    `codewords` is ignored: perfbench/cvp_probe.py still passes it, until
    ROADMAP item 1 drops it there.
    """
    cell = _cell(lat, scale)
    t = np.asarray(target, dtype=float)
    if t.shape != (lat.n,):
        raise ValueError(f"target length {t.shape} != n={lat.n}")
    if not np.isfinite(t).all():
        raise ValueError(f"target must be finite, got {t.tolist()}")
    r = np.arange(lat.p)
    # nearest integer with exact halves rounded down, so tied minimizers stay lex-smallest
    cand = cell * (r + lat.p * np.ceil((t[:, None] / cell - r) / lat.p - 0.5))
    _, index = _coset_table(lat)
    return _lex_argmin(((cand - t[:, None]) ** 2).ravel(), cand.ravel(), index)


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
    cosets, _ = _coset_table(lat)
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
