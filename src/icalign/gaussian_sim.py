"""Monte Carlo simulation of the symmetric K-user Gaussian interference channel.

Receiver j sees y_j = x_j + a * sum_{k != j} x_k + z_j with unit-variance
AWGN.  All transmitters share one lattice codebook (lattice + shift s), so
the interference at each receiver aligns into a single point of a*Lambda.
The two-stage receiver cancels the known shifts, decodes that point
(treating the desired signal as noise), subtracts it, and then decodes its
own codeword from the clean residual x_j + z_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice_geometry import (
    Codebook,
    message_codebook,
    nearest_codeword,
    nearest_lattice_point,
)
from .zp_codes import ConstructionALattice, is_lattice_point, same_lattice_point
# unused here: perfbench/tracer.py wraps this name in this module, until ROADMAP item 1
from .zp_codes import enumerate_codewords  # noqa: F401

TRIAL_STREAM = 2
BLOCK_COUNT = 10

MODES = ("two_stage", "lattice_only", "no_interference")


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    """One symmetric Gaussian interference channel instance.

    Direct gains are 1, every cross gain is `a`, noise is i.i.d. zero-mean
    unit-variance Gaussian per dimension.  The block length n and the power
    P belong to the codebook a run is given (cb.lattice.n, cb.shell.P).
    """

    K: int
    a: float
    seed: int

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class LoeligerBound(NamedTuple):
    """Union-bound value and its decay predicate for interference decoding."""

    bound: float
    decay_margin: float  # 0.5*log2(2 pi e sigma^2 / a^2) - log2(V)/n
    decays: bool


def channel_output(X, a: float, noise) -> np.ndarray:
    """Y_j = X_j + a * sum_{k != j} X_k + Z_j, rowwise over a K x n matrix."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(noise, dtype=float)
    if X.ndim != 2 or X.shape != Z.shape:
        raise ValueError(f"X and noise must share a K x n shape, got {X.shape} vs {Z.shape}")
    total = X.sum(axis=0)
    return X + a * (total - X) + Z


def decode_interference_sum(
    lat: ConstructionALattice,
    a: float,
    shift,
    K: int,
    y,
) -> np.ndarray:
    """Stage 1: nearest point of a*Lambda to y after cancelling (K-1)*a*s.

    All transmitters share the shift s, so the receiver removes the known
    (K-1)*a*s before lattice decoding at scale a.  The lattice's coset table
    is built on its first decode and reused while it is the lattice decoded.
    """
    if a == 0:
        raise ValueError("a must be nonzero for interference decoding")
    y_t = np.asarray(y, dtype=float) - (K - 1) * a * np.asarray(shift, dtype=float)
    return nearest_lattice_point(lat, y_t, scale=a)


def two_stage_decode(cb: Codebook, a: float, K: int, y) -> tuple[np.ndarray, int]:
    """Decode the aligned interference sum, cancel it, then decode the message.

    Returns (t_hat, m_hat): the decoded point of a*Lambda and the message
    index.  After a correct stage 1 the residual y - (K-1)*a*s - t_hat
    equals x_j + z_j exactly.  A stage-1 error is not detected; stage 2
    proceeds on the wrong residual.  The caller judges stage 1 with
    zp_codes.same_lattice_point(cb.lattice, t_hat, t, a), exact at any a.
    """
    return _receive(cb, a, K, y, "two_stage")


def _receive(cb: Codebook, a: float, K: int, y,
             mode: str) -> tuple[np.ndarray | None, int | None]:
    """two_stage_decode for any of MODES, as (t_hat, m_hat).

    t_hat is None in no_interference (no stage 1); m_hat is None when
    lattice_only decodes a point outside the codebook.  The Monte Carlo
    loop and the public decoders share this path and the lattice's one
    coset table.
    """
    y = np.asarray(y, dtype=float)
    t_hat, residual = None, y
    if mode != "no_interference":
        t_hat = decode_interference_sum(cb.lattice, a, cb.shift, K, y)
        residual = y - (K - 1) * a * cb.shift - t_hat
    if mode == "lattice_only":
        m_hat = lattice_only_decode(cb, residual)
    else:
        m_hat, _ = nearest_codeword(cb, residual)
    return t_hat, m_hat


def lattice_only_decode(cb: Codebook, y) -> int | None:
    """Stage-2 replacement: unconstrained lattice decode of the residual.

    Decodes the codebook's lattice against (y - s), maps the point + s back
    to a codebook index; returns None when the decoded point falls outside
    the codebook (counted as a message error by callers).  Repeated calls on
    one codebook reuse its lattice's coset table.
    """
    lam = nearest_lattice_point(cb.lattice, np.asarray(y, dtype=float) - cb.shift)
    return cb.index_of(lam + cb.shift)


def loeliger_error_bound(n: int, sigma_sq: float, V: float, a: float) -> LoeligerBound:
    """Interference-decode error bound 4*(2 pi e sigma^2)^(n/2) / (a^n V).

    Also evaluates the decay predicate
    0.5*log2(2 pi e sigma^2 / a^2) - log2(V)/n < 0: the error probability
    shrinks with n exactly when the Voronoi cell of a*Lambda outgrows the
    typical noise set.
    """
    if n < 1 or sigma_sq <= 0 or V <= 0 or a <= 0:
        raise ValueError("n, sigma_sq, V, a must be positive")
    bound = 4.0 * (2 * math.pi * math.e * sigma_sq) ** (n / 2) / (a**n * V)
    margin = 0.5 * math.log2(2 * math.pi * math.e * sigma_sq / a**2) - math.log2(V) / n
    return LoeligerBound(bound=bound, decay_margin=margin, decays=margin < 0)


@dataclass
class SimulationReport:
    """Error counts of one Monte Carlo run; every rate is derived from them.

    It stores counts only: per-block error counts (blocks x K; block b
    covers trials [bounds[b], bounds[b+1]) of block_bounds(trials)),
    msg_errors_intf_ok, the effective-noise mean and standard error per
    user, and the alignment checks made and failed.  The per-user totals
    intf_errors / msg_errors and the rates intf_error_rate /
    msg_error_rate are properties; confidence half-widths are computed
    where they are written.  `codebook` is the full codebook the run was
    given (not a copy); it supplies n, P, the codebook size and the
    message count.
    """

    config: ChannelConfig
    mode: str
    trials: int
    codebook: Codebook
    block_intf_errors: np.ndarray  # blocks x K
    block_msg_errors: np.ndarray  # blocks x K
    msg_errors_intf_ok: np.ndarray
    eff_noise_mean: np.ndarray
    eff_noise_stderr: np.ndarray
    alignment_checks: int
    alignment_violations: int

    @property
    def intf_errors(self) -> np.ndarray:
        return self.block_intf_errors.sum(axis=0)

    @property
    def msg_errors(self) -> np.ndarray:
        return self.block_msg_errors.sum(axis=0)

    @property
    def intf_error_rate(self) -> np.ndarray:
        return self.intf_errors / self.trials

    @property
    def msg_error_rate(self) -> np.ndarray:
        return self.msg_errors / self.trials

    def to_dict(self) -> dict:
        c, cb, t = self.config, self.codebook, self.trials
        return {
            "config": {"K": c.K, "a": c.a, "P": cb.shell.P, "n": cb.lattice.n, "seed": c.seed,
                       "noise_variance": 1.0},
            "mode": self.mode,
            "trials": t,
            "codebook_size": len(cb),
            "message_count": cb.message_count,
            "intf_error_rate": [float(x) for x in self.intf_error_rate],
            "msg_error_rate": [float(x) for x in self.msg_error_rate],
            "intf_ci_half_width": [float(x) for x in _ci_half_width(self.intf_errors, t)],
            "msg_ci_half_width": [float(x) for x in _ci_half_width(self.msg_errors, t)],
            "msg_errors_intf_ok": [int(x) for x in self.msg_errors_intf_ok],
            "eff_noise_mean": [float(x) for x in self.eff_noise_mean],
            "eff_noise_stderr": [float(x) for x in self.eff_noise_stderr],
            "alignment_checks": self.alignment_checks,
            "alignment_violations": self.alignment_violations,
        }


def _ci_half_width(errors: np.ndarray, trials: int) -> np.ndarray:
    rate = errors / trials
    return 1.96 * np.sqrt(rate * (1.0 - rate) / trials)


def block_bounds(trials: int) -> np.ndarray:
    """Bounds of min(BLOCK_COUNT, trials) blocks of consecutive trials.

    Block b covers trials [bounds[b], bounds[b+1]); every block is nonempty.
    """
    blocks = min(BLOCK_COUNT, trials)
    return np.array([round(trials * b / blocks) for b in range(blocks + 1)])


def report_csv_rows(report: SimulationReport) -> list[dict]:
    """Per-(block, user) rows: trial_block, user, rates, msg ci half-width."""
    rows = []
    bounds = block_bounds(report.trials)
    for b in range(len(bounds) - 1):
        count = int(bounds[b + 1] - bounds[b])
        for j in range(report.config.K):
            ie = int(report.block_intf_errors[b, j])
            me = int(report.block_msg_errors[b, j])
            rows.append({
                "trial_block": b,
                "user": j,
                "intf_err_rate": ie / count,
                "msg_err_rate": me / count,
                "ci_half_width": float(_ci_half_width(me, count)),
            })
    return rows


def run_monte_carlo(
    config: ChannelConfig,
    cb: Codebook,
    trials: int,
    mode: str = "two_stage",
) -> SimulationReport:
    """Independent seeded trials of the full encode / channel / decode chain.

    Trial i draws its own substream from [seed, TRIAL_STREAM, i], so any
    execution order (or a parallel split by trial index) yields the same
    report.  Transmitters draw uniform messages from the rate-R message
    sub-codebook; receivers decode against that same sub-codebook.  Every
    trial also asserts the alignment invariant: the true interference sum
    at each receiver is a member of a*Lambda.  Error counts are kept per
    block of consecutive trials, as block_bounds(trials) splits them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "no_interference" and config.a != 0:
        raise ValueError("no_interference mode requires a = 0")
    if mode != "no_interference" and config.a == 0:
        raise ValueError(f"mode {mode!r} requires a != 0")
    full_cb, cb = cb, message_codebook(cb)
    M = cb.message_count
    if M < 1:
        raise ValueError("codebook has no usable messages")

    lat = cb.lattice
    K, n, a = config.K, lat.n, config.a
    bounds = block_bounds(trials)
    block_count = len(bounds) - 1

    msg_errors_intf_ok = np.zeros(K, dtype=np.int64)
    eff_sum = np.zeros(K)
    eff_sumsq = np.zeros(K)
    blk_intf = np.zeros((block_count, K), dtype=np.int64)
    blk_msg = np.zeros((block_count, K), dtype=np.int64)
    align_checks = 0
    align_violations = 0

    for block in range(block_count):
        for i in range(bounds[block], bounds[block + 1]):
            rng = np.random.default_rng([config.seed, TRIAL_STREAM, i])
            msgs = rng.integers(0, M, size=K)
            X = cb.codewords[msgs]
            Z = rng.standard_normal((K, n))
            Y = channel_output(X, a, Z)
            eff = ((X + Z) ** 2).mean(axis=1)  # |x_j + z_j|^2 / n per receiver
            eff_sum += eff
            eff_sumsq += eff * eff
            lambdas = X - cb.shift
            lam_total = lambdas.sum(axis=0)
            for j in range(K):
                t_hat, m_hat = _receive(cb, a, K, Y[j], mode)
                intf_err = False
                if t_hat is not None:
                    true_sum = a * (lam_total - lambdas[j])
                    align_checks += 1
                    if not is_lattice_point(lat, true_sum, scale=a):
                        align_violations += 1
                    intf_err = not same_lattice_point(lat, t_hat, true_sum, a)
                if intf_err:
                    blk_intf[block, j] += 1
                if m_hat != msgs[j]:
                    blk_msg[block, j] += 1
                    if not intf_err:
                        msg_errors_intf_ok[j] += 1

    mean = eff_sum / trials
    var = np.maximum(eff_sumsq / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return SimulationReport(
        config=config,
        mode=mode,
        trials=trials,
        codebook=full_cb,
        block_intf_errors=blk_intf,
        block_msg_errors=blk_msg,
        msg_errors_intf_ok=msg_errors_intf_ok,
        eff_noise_mean=mean,
        eff_noise_stderr=stderr,
        alignment_checks=align_checks,
        alignment_violations=align_violations,
    )
