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
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice_geometry import (
    Codebook,
    message_codebook,
    nearest_codeword,
    nearest_lattice_point,
)
from .zp_codes import ConstructionALattice, enumerate_codewords, is_lattice_point, lattice_coords

TRIAL_STREAM = 2
BLOCK_COUNT = 10

MODES = ("two_stage", "lattice_only", "no_interference")


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    """One symmetric Gaussian interference channel instance.

    Direct gains are 1, every cross gain is `a`, noise is i.i.d. zero-mean
    unit-variance Gaussian per dimension.
    """

    K: int
    a: float
    P: float
    n: int
    seed: int
    noise_variance: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.P <= 0:
            raise ValueError("P must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class TrialResult:
    """Per-receiver outcome of one decoded channel use.

    The error flags are None when the caller gave no truth to judge by.
    """

    interference_error: bool | None
    message_error: bool | None


class LoeligerBound(NamedTuple):
    """Union-bound value and its decay predicate for interference decoding."""

    bound: float
    decay_margin: float  # 0.5*log2(2 pi e sigma^2 / a^2) - log2(V)/n
    decays: bool


def encode(cb: Codebook, message_index: int) -> np.ndarray:
    """Codeword for a message index; every entry satisfies |x|^2 <= nP."""
    if not 0 <= message_index < len(cb):
        raise IndexError(f"message index {message_index} outside codebook of {len(cb)}")
    return cb.codewords[message_index].copy()


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
    codewords: np.ndarray | None = None,
) -> np.ndarray:
    """Stage 1: nearest point of a*Lambda to y after cancelling (K-1)*a*s.

    All transmitters share the shift s, so the receiver removes the known
    (K-1)*a*s before lattice decoding at scale a.
    """
    if a == 0:
        raise ValueError("a must be nonzero for interference decoding")
    y_t = np.asarray(y, dtype=float) - (K - 1) * a * np.asarray(shift, dtype=float)
    return nearest_lattice_point(lat, y_t, scale=a, codewords=codewords)


def two_stage_decode(
    cb: Codebook,
    a: float,
    K: int,
    y,
    true_interference=None,
    true_message: int | None = None,
) -> tuple[int, TrialResult]:
    """Decode the aligned interference sum, cancel it, then decode the message.

    After a correct stage 1 the residual y - (K-1)*a*s - t_hat equals
    x_j + z_j exactly.  A stage-1 error is not detected; stage 2 proceeds
    on the wrong residual and the resulting message error is counted.
    Given the true interference point (of a*Lambda), stage 1 is judged by
    integer lattice coordinates (zp_codes.lattice_coords at scale a), so
    the verdict is exact at any gain a.
    """
    return _receive(cb, a, K, y, "two_stage", None, true_interference, true_message)


def _receive(
    cb: Codebook, a: float, K: int, y, mode: str, codewords=None, true_interference=None,
    true_message=None,
) -> tuple[int | None, TrialResult]:
    """two_stage_decode for any of MODES; no_interference has no stage 1."""
    y = np.asarray(y, dtype=float)
    t_hat, residual = None, y
    if mode != "no_interference":
        t_hat = decode_interference_sum(cb.lattice, a, cb.shift, K, y, codewords=codewords)
        residual = y - (K - 1) * a * cb.shift - t_hat
    if mode == "lattice_only":
        m_hat = lattice_only_decode(cb, residual, codewords=codewords)
    else:
        m_hat, _ = nearest_codeword(cb, residual)
    intf_err = None
    if true_interference is not None:
        intf_err = bool((lattice_coords(cb.lattice, t_hat, a)
                         != lattice_coords(cb.lattice, true_interference, a)).any())
    msg_err = None if true_message is None else (m_hat != true_message)
    return m_hat, TrialResult(intf_err, msg_err)


def lattice_only_decode(cb: Codebook, y, codewords: np.ndarray | None = None) -> int | None:
    """Stage-2 replacement: unconstrained lattice decode of the residual.

    Decodes the codebook's lattice against (y - s), maps the point + s back
    to a codebook index; returns None when the decoded point falls outside
    the codebook (counted as a message error by callers).
    """
    lam = nearest_lattice_point(cb.lattice, np.asarray(y, dtype=float) - cb.shift,
                                codewords=codewords)
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
    """Aggregated error statistics for one Monte Carlo run.

    Rates, confidence half-widths and effective-noise statistics are
    per-user arrays of length K.  wall_clock stays in memory only; the
    serialized form excludes it so reruns are byte-identical.
    """

    config: ChannelConfig
    mode: str
    trials: int
    codebook_size: int
    message_count: int
    intf_error_rate: np.ndarray
    msg_error_rate: np.ndarray
    intf_ci_half_width: np.ndarray
    msg_ci_half_width: np.ndarray
    msg_errors: np.ndarray
    intf_errors: np.ndarray
    msg_errors_intf_ok: np.ndarray
    eff_noise_mean: np.ndarray
    eff_noise_stderr: np.ndarray
    alignment_checks: int
    alignment_violations: int
    block_bounds: np.ndarray  # block b covers trials [bounds[b], bounds[b+1])
    block_intf_errors: np.ndarray  # blocks x K
    block_msg_errors: np.ndarray  # blocks x K
    wall_clock: float

    def to_dict(self) -> dict:
        c = self.config
        return {
            "config": {"K": c.K, "a": c.a, "P": c.P, "n": c.n, "seed": c.seed,
                       "noise_variance": c.noise_variance},
            "mode": self.mode,
            "trials": self.trials,
            "codebook_size": self.codebook_size,
            "message_count": self.message_count,
            "intf_error_rate": [float(x) for x in self.intf_error_rate],
            "msg_error_rate": [float(x) for x in self.msg_error_rate],
            "intf_ci_half_width": [float(x) for x in self.intf_ci_half_width],
            "msg_ci_half_width": [float(x) for x in self.msg_ci_half_width],
            "msg_errors_intf_ok": [int(x) for x in self.msg_errors_intf_ok],
            "eff_noise_mean": [float(x) for x in self.eff_noise_mean],
            "eff_noise_stderr": [float(x) for x in self.eff_noise_stderr],
            "alignment_checks": self.alignment_checks,
            "alignment_violations": self.alignment_violations,
        }


def _ci_half_width(errors: np.ndarray, trials: int) -> np.ndarray:
    rate = errors / trials
    return 1.96 * np.sqrt(rate * (1.0 - rate) / trials)


def report_csv_rows(report: SimulationReport) -> list[dict]:
    """Per-(block, user) rows: trial_block, user, rates, msg ci half-width."""
    rows = []
    bounds = report.block_bounds
    for b in range(len(bounds) - 1):
        count = int(bounds[b + 1] - bounds[b])
        if count == 0:
            continue
        for j in range(report.config.K):
            ie = int(report.block_intf_errors[b, j])
            me = int(report.block_msg_errors[b, j])
            rate = me / count
            rows.append({
                "trial_block": b,
                "user": j,
                "intf_err_rate": ie / count,
                "msg_err_rate": rate,
                "ci_half_width": 1.96 * math.sqrt(rate * (1.0 - rate) / count),
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
    at each receiver is a member of a*Lambda.  Error counts are also kept
    per block of consecutive trials, min(BLOCK_COUNT, trials) blocks.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    lat = cb.lattice
    if config.n != lat.n:
        raise ValueError(f"config n={config.n} != lattice n={lat.n}")
    if not math.isclose(config.P, cb.shell.P, rel_tol=1e-12):
        raise ValueError(f"config P={config.P!r} != shell P={cb.shell.P!r}")
    if mode == "no_interference" and config.a != 0:
        raise ValueError("no_interference mode requires a = 0")
    if mode != "no_interference" and config.a == 0:
        raise ValueError(f"mode {mode!r} requires a != 0")
    full_size = len(cb)
    cb = message_codebook(cb)
    M = cb.message_count
    if M < 1:
        raise ValueError("codebook has no usable messages")

    K, n, a = config.K, config.n, config.a
    codewords = enumerate_codewords(lat.code)
    sigma = math.sqrt(config.noise_variance)
    block_count = min(BLOCK_COUNT, trials)
    bounds = np.array([round(trials * b / block_count) for b in range(block_count + 1)])

    msg_errors_intf_ok = np.zeros(K, dtype=np.int64)
    eff_sum = np.zeros(K)
    eff_sumsq = np.zeros(K)
    blk_intf = np.zeros((block_count, K), dtype=np.int64)
    blk_msg = np.zeros((block_count, K), dtype=np.int64)
    align_checks = 0
    align_violations = 0

    t0 = time.perf_counter()
    block = 0
    for i in range(trials):
        while i >= bounds[block + 1]:
            block += 1
        rng = np.random.default_rng([config.seed, TRIAL_STREAM, i])
        msgs = rng.integers(0, M, size=K)
        X = cb.codewords[msgs]
        Z = sigma * rng.standard_normal((K, n))
        Y = channel_output(X, a, Z)
        eff = ((X + Z) ** 2).mean(axis=1)  # |x_j + z_j|^2 / n per receiver
        eff_sum += eff
        eff_sumsq += eff * eff
        lambdas = X - cb.shift
        lam_total = lambdas.sum(axis=0)
        for j in range(K):
            true_sum = None
            if mode != "no_interference":
                true_sum = a * (lam_total - lambdas[j])
                align_checks += 1
                if not is_lattice_point(lat, true_sum, scale=a):
                    align_violations += 1
            _, res = _receive(cb, a, K, Y[j], mode, codewords, true_sum, msgs[j])
            intf_err, msg_err = res.interference_error, res.message_error
            if intf_err:
                blk_intf[block, j] += 1
            if msg_err:
                blk_msg[block, j] += 1
                if not intf_err:
                    msg_errors_intf_ok[j] += 1
    wall = time.perf_counter() - t0
    intf_errors, msg_errors = blk_intf.sum(axis=0), blk_msg.sum(axis=0)

    mean = eff_sum / trials
    var = np.maximum(eff_sumsq / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return SimulationReport(
        config=config,
        mode=mode,
        trials=trials,
        codebook_size=full_size,
        message_count=M,
        intf_error_rate=intf_errors / trials,
        msg_error_rate=msg_errors / trials,
        intf_ci_half_width=_ci_half_width(intf_errors, trials),
        msg_ci_half_width=_ci_half_width(msg_errors, trials),
        msg_errors=msg_errors,
        intf_errors=intf_errors,
        msg_errors_intf_ok=msg_errors_intf_ok,
        eff_noise_mean=mean,
        eff_noise_stderr=stderr,
        alignment_checks=align_checks,
        alignment_violations=align_violations,
        block_bounds=bounds,
        block_intf_errors=blk_intf,
        block_msg_errors=blk_msg,
        wall_clock=wall,
    )
