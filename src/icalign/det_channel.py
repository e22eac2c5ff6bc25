"""Bit-level deterministic interference channel, exact and linear over GF(2).

Each of K users sends n_d bits.  At receiver j the own bits land on
levels 0..n_d-1 (top bit at level n_d-1) and every interferer's bits land
on levels n_c-n_d..n_c-1 (bits shifted below level 0 are lost); levels
add mod 2 across contributors.  With n_c >= 2*n_d the two bands are
disjoint, so each receiver reads its own bits and the mod-2 sum of the
interfering bits with zero error.  Because receiver j's output is A_j x
over GF(2), zero-error decodability is a rank test on A_j rather than a
search over all 2^(K*n_d) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .zp_codes import EnumerationTooLarge, rank_mod_p

EXHAUSTION_CAP_BITS = 24
RANK_CAP_CELLS = 1 << 16  # q x K*n_d cells of one receiver's level-map matrix


class RegimeViolation(ValueError):
    """Level bands overlap; disjoint-band decoding is undefined."""


@dataclass(frozen=True)
class DetChannelConfig:
    K: int
    n_d: int  # direct-link bit levels
    n_c: int  # cross-link bit levels

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.n_d < 1:
            raise ValueError("n_d must be >= 1")
        if self.n_c < 0:
            raise ValueError("n_c must be >= 0")

    @property
    def q(self) -> int:
        """Received levels."""
        return max(self.n_d, self.n_c)

    @property
    def very_strong(self) -> bool:
        # n_c = 0 is the no-interference baseline, vacuously very strong.
        return self.n_c == 0 or self.n_c >= 2 * self.n_d

    @property
    def gdof_ratio(self) -> float:
        return self.n_c / self.n_d


def _validate_inputs(cfg: DetChannelConfig, inputs) -> np.ndarray:
    arr = np.asarray(inputs, dtype=np.int64)
    if arr.shape != (cfg.K, cfg.n_d):
        raise ValueError(f"inputs must be K x n_d = {cfg.K} x {cfg.n_d}, got {arr.shape}")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("inputs must be 0/1 bits")
    return arr


def _receiver_output(cfg: DetChannelConfig, bits: np.ndarray, j: int) -> np.ndarray:
    """Receiver j's (N, q) output for an (N, K, n_d) bit array, in the bits' dtype."""
    n_d, n_c = cfg.n_d, cfg.n_c
    y = np.zeros((bits.shape[0], cfg.q), dtype=bits.dtype)
    y[:, :n_d] ^= bits[:, j, :]
    if n_c > 0:
        # mod-2 sum over interferers, per bit
        inter = ((bits.sum(axis=1, dtype=np.int64) - bits[:, j, :]) & 1).astype(bits.dtype)
        b0 = max(0, n_d - n_c)  # bits below level 0 are lost
        y[:, n_c - n_d + b0 : n_c] ^= inter[:, b0:]
    return y


def det_output(cfg: DetChannelConfig, inputs) -> np.ndarray:
    """Receiver outputs, K x q bit array; bit index == level index."""
    x = _validate_inputs(cfg, inputs)[None]
    return np.vstack([_receiver_output(cfg, x, j) for j in range(cfg.K)])


def det_decode(cfg: DetChannelConfig, y_j) -> tuple[np.ndarray, np.ndarray]:
    """Read (own bits, interference level-sum bits) from disjoint bands.

    Exact and zero-error, but only defined when the bands are disjoint
    (n_c >= 2*n_d, or n_c = 0 with no interference band at all).
    """
    if not cfg.very_strong:
        raise RegimeViolation(
            f"levels overlap: n_c={cfg.n_c} < 2*n_d={2 * cfg.n_d}"
        )
    y = np.asarray(y_j, dtype=np.int64)
    if y.shape != (cfg.q,):
        raise ValueError(f"output length {y.shape} != q={cfg.q}")
    own = y[: cfg.n_d].copy()
    if cfg.n_c == 0:
        return own, np.zeros(0, dtype=np.int64)
    return own, y[cfg.n_c - cfg.n_d : cfg.n_c].copy()


def det_capacity_check(cfg: DetChannelConfig) -> bool:
    """True iff every receiver recovers its own n_d bits with zero error.

    The level map is linear over GF(2), so receiver j sees y_j = A_j x for
    the stacked input bits x.  Receiver j is zero-error iff no two inputs
    with different own bits give one y_j, that is iff
    rank2(A_j) = n_d + rank2(A_j without receiver j's own n_d columns)
    (no decoder, however clever, can beat that).  When the level bands are
    disjoint, A_j's own-band rows are also checked to read exactly the
    own bits.  Raises EnumerationTooLarge, before building any matrix, when
    K*n_d passes EXHAUSTION_CAP_BITS or the q x K*n_d matrix passes
    RANK_CAP_CELLS (the rank test's time grows with q).
    """
    total_bits = cfg.K * cfg.n_d
    if total_bits > EXHAUSTION_CAP_BITS:
        raise EnumerationTooLarge(
            f"K*n_d = {total_bits} bits exceeds cap {EXHAUSTION_CAP_BITS}")
    if cfg.q * total_bits > RANK_CAP_CELLS:
        raise EnumerationTooLarge(f"level map of q x K*n_d = {cfg.q} x {total_bits} cells "
                                  f"exceeds cap {RANK_CAP_CELLS}")
    n_d = cfg.n_d
    units = np.eye(total_bits, dtype=np.uint8)
    for j in range(cfg.K):
        A = _receiver_output(cfg, units.reshape(-1, cfg.K, n_d), j).T
        own = slice(j * n_d, (j + 1) * n_d)
        if rank_mod_p(A, 2) != n_d + rank_mod_p(np.delete(A, own, axis=1), 2):
            return False
        # disjoint bands: the direct read-off must be the own bits alone
        if cfg.very_strong and np.any(A[:n_d] != units[own]):
            raise AssertionError("disjoint-band read-off disagrees with ground truth")
    return True


def level_diagram(cfg: DetChannelConfig) -> str:
    """ASCII picture of which bits land on which level, per receiver."""
    lines = [f"K={cfg.K}, n_d={cfg.n_d}, n_c={cfg.n_c}, q={cfg.q}, "
             f"ratio n_c/n_d = {cfg.gdof_ratio:g}, very_strong = {cfg.very_strong}"]
    for j in range(cfg.K):
        lines.append(f"receiver {j + 1}:")
        for lvl in range(cfg.q - 1, -1, -1):
            contrib = []
            if lvl < cfg.n_d:
                contrib.append(f"X{j + 1}[{lvl}]")
            if cfg.n_c > 0:
                b = lvl - (cfg.n_c - cfg.n_d)
                if 0 <= b < cfg.n_d and lvl < cfg.n_c:
                    others = [f"X{u + 1}[{b}]" for u in range(cfg.K) if u != j]
                    contrib.append(" ^ ".join(others))
            lines.append(f"  level {lvl} | " + (" ^ ".join(contrib) if contrib else "-"))
    return "\n".join(lines)
