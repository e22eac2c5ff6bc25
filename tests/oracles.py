"""Slow reference implementations that the package's fast paths are checked against.

- `coset_scan_nearest`: the exact closest-point decoder as first written,
  scanning all p^k cosets with per-coset half-down rounding and a
  lexicographic tie-break.  A faster `nearest_lattice_point` must equal it
  byte for byte, ties included.
- `brute_force_nearest`: a ball-enumeration oracle that does not use coset
  rounding at all.
- `box_scan_codebook`: codebook enumeration by scanning each coset's whole
  integer box; `build_codebook` must equal it byte for byte.
- `all_inputs` and `collision_capacity_check`: every bit input of a
  deterministic channel, and zero-error decodability decided by looking
  for colliding outputs among them.
- `exhaustive_capacity_check`: the same decision vectorized over all
  2^(K*n_d) input tuples at once, as `det_capacity_check` made it before
  its GF(2) rank test; usable up to about 20 input bits.
- `replay_monte_carlo`: the error counts of `run_monte_carlo`, replayed
  trial by trial through the public decoders of each mode.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from icalign.det_channel import _receiver_output, det_output
from icalign.gaussian_sim import (
    channel_output,
    decode_interference_sum,
    lattice_only_decode,
    two_stage_decode,
)
from icalign.lattice_geometry import message_codebook, nearest_codeword
from icalign.zp_codes import ConstructionALattice, enumerate_codewords, same_lattice_point


def _round_half_down(x: np.ndarray) -> np.ndarray:
    # Nearest integer; exact halves go down, which keeps tied coset
    # minimizers lexicographically smallest.
    return np.ceil(x - 0.5)


def _lex_min_index(points: np.ndarray, d2: np.ndarray) -> int:
    best = d2.min()
    idx = np.nonzero(d2 == best)[0]
    if idx.size == 1:
        return int(idx[0])
    rows = points[idx]
    order = np.lexsort(rows.T[::-1])  # first coordinate is primary key
    return int(idx[order[0]])


def coset_scan_nearest(
    lat: ConstructionALattice,
    target,
    scale: float = 1.0,
    codewords: np.ndarray | None = None,
) -> np.ndarray:
    """Exact closest point of scale * gamma * Lambda_C to `target`.

    For each codeword c the per-coset minimizer is
    scale*gamma*(c + p*round((target/(scale*gamma) - c)/p)) componentwise;
    the global argmin over cosets is exact.  Ties break to the
    lexicographically smallest point.  `codewords` may carry a precomputed
    enumeration to amortize repeated decodes against one lattice; without
    it, enumerate_codewords raises EnumerationTooLarge past ENUMERATION_CAP.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    t = np.asarray(target, dtype=float)
    if t.shape != (lat.n,):
        raise ValueError(f"target length {t.shape} != n={lat.n}")
    if codewords is None:
        codewords = enumerate_codewords(lat.code)
    cell = abs(scale) * lat.gamma
    Z = _round_half_down((t / cell - codewords) / lat.p)
    cand = cell * (codewords + lat.p * Z)
    d2 = ((cand - t) ** 2).sum(axis=1)
    return cand[_lex_min_index(cand, d2)].copy()


def brute_force_nearest(lat, target, scale=1.0):
    """Ball-enumeration oracle: scan every lattice point within a radius
    guaranteed to contain the nearest one (p*Z^n is always a sublattice,
    so the rounded p-grid point bounds the distance)."""
    t = np.asarray(target, dtype=float)
    cell = abs(scale) * lat.gamma
    p, n = lat.p, lat.n
    v0 = cell * p * np.round(t / (cell * p))
    d0 = math.sqrt(float(((t - v0) ** 2).sum())) * (1 + 1e-12) + 1e-12
    chunks = []
    for c in enumerate_codewords(lat.code):
        lo = np.ceil((t - d0) / (cell * p) - c / p - 1e-9).astype(int)
        hi = np.floor((t + d0) / (cell * p) - c / p + 1e-9).astype(int)
        if np.any(hi < lo):
            continue
        axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        chunks.append(cell * (c + p * Z))
    cand = np.vstack(chunks)
    d2 = ((cand - t) ** 2).sum(axis=1)
    best = d2.min()
    ties = sorted(tuple(row) for row in cand[d2 == best])
    return np.array(ties[0]), float(best)


def box_scan_codebook(lat, s, shell):
    """Reference enumeration: scan every coset's whole integer box around
    the outer ball, keep the exact shell members, sort lexicographically."""
    cosets = enumerate_codewords(lat.code)
    g, p, n = lat.gamma, lat.p, lat.n
    r_out = shell.outer_radius
    lo_b = (-r_out - s) / (g * p)
    hi_b = (r_out - s) / (g * p)
    chunks = [np.zeros((0, n))]
    for c in cosets:
        lo = np.ceil(lo_b - c / p - 1e-9).astype(np.int64)
        hi = np.floor(hi_b - c / p + 1e-9).astype(np.int64)
        if np.any(hi < lo):
            continue
        axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        X = g * (c + p * Z) + s
        r2 = (X**2).sum(axis=1)
        chunks.append(X[(r2 >= n * shell.P_prime) & (r2 <= n * shell.P)])
    pts = np.vstack(chunks)
    return pts[np.lexsort(pts.T[::-1])]


def all_inputs(cfg):
    space = itertools.product([0, 1], repeat=cfg.K * cfg.n_d)
    for flat in space:
        yield np.array(flat).reshape(cfg.K, cfg.n_d)


def collision_capacity_check(cfg) -> bool:
    """Receiver j is zero-error iff no output value of det_output comes from
    two inputs with different own bits; True when every receiver is."""
    own_bits_by_output = [{} for _ in range(cfg.K)]
    for x in all_inputs(cfg):
        y = det_output(cfg, x)
        for j in range(cfg.K):
            own_bits_by_output[j].setdefault(tuple(y[j]), set()).add(tuple(x[j]))
    return all(len(own) == 1 for seen in own_bits_by_output for own in seen.values())


def _all_input_bits(cfg) -> np.ndarray:
    """(2^(K*n_d), K, n_d) bit array covering every input tuple."""
    total_bits = cfg.K * cfg.n_d
    t = np.arange(1 << total_bits, dtype=np.uint32)[:, None]
    bits = ((t >> np.arange(total_bits, dtype=np.uint32)) & 1).astype(np.uint8)
    return bits.reshape(-1, cfg.K, cfg.n_d)


def exhaustive_capacity_check(cfg) -> bool:
    """Receiver j is zero-error iff no two of all input tuples with different
    own bits collide on y_j; True when every receiver is.  When the level
    bands are disjoint, the own-bit band of every output is also checked
    against the inputs."""
    bits = _all_input_bits(cfg)
    n_d = cfg.n_d
    level_weights = 1 << np.arange(cfg.q, dtype=np.int64)
    ok = True
    for j in range(cfg.K):
        y = _receiver_output(cfg, bits, j)
        y_int = y.astype(np.int64) @ level_weights
        own_int = bits[:, j, :].astype(np.int64) @ level_weights[:n_d]
        keys = y_int << n_d | own_int
        if np.unique(keys).size != np.unique(y_int).size:
            ok = False
            break
        if cfg.very_strong:
            # disjoint bands: the direct read-off must match ground truth
            if np.any(y[:, :n_d] != bits[:, j, :]):
                raise AssertionError("disjoint-band read-off disagrees with ground truth")
    return ok


def replay_monte_carlo(config, cb, trials: int, mode: str):
    """Per-user (intf_errors, msg_errors, msg_errors_intf_ok) of run_monte_carlo.

    Replays the per-trial substreams [seed, 2, i] and decodes each receiver
    with the public decoder of `mode`.  Both stage-1 modes are judged by
    zp_codes.same_lattice_point at scale a, as run_monte_carlo judges them.
    """
    K, a = config.K, config.a
    mcb = message_codebook(cb)
    lat = mcb.lattice
    n = lat.n
    intf = np.zeros(K, dtype=int)
    msg = np.zeros(K, dtype=int)
    msg_intf_ok = np.zeros(K, dtype=int)
    for i in range(trials):
        rng = np.random.default_rng([config.seed, 2, i])
        msgs = rng.integers(0, mcb.message_count, size=K)
        X = mcb.codewords[msgs]
        Y = channel_output(X, a, rng.standard_normal((K, n)))
        lam = X - mcb.shift
        for j in range(K):
            true_t = a * (lam.sum(axis=0) - lam[j])
            if mode == "two_stage":
                t_hat, m_hat = two_stage_decode(mcb, a, K, Y[j])
            elif mode == "lattice_only":
                t_hat = decode_interference_sum(lat, a, mcb.shift, K, Y[j])
                residual = Y[j] - (K - 1) * a * mcb.shift - t_hat
                m_hat = lattice_only_decode(mcb, residual)
            else:
                t_hat, (m_hat, _) = None, nearest_codeword(mcb, Y[j])
            intf_err = t_hat is not None and not same_lattice_point(lat, t_hat, true_t, a)
            msg_err = m_hat is None or m_hat != msgs[j]
            intf[j] += intf_err
            msg[j] += msg_err
            msg_intf_ok[j] += msg_err and not intf_err
    return intf, msg, msg_intf_ok
