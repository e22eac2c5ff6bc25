"""Closed-form interference-regime thresholds and rate calculators.

All rates are bits per channel use (base-2 logs); thresholds are on the
squared cross gain a^2 and are base-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def two_user_threshold(P: float) -> float:
    """a^2 >= 1 + P lets a 2-user receiver decode interference first."""
    if P <= 0:
        raise ValueError("P must be positive")
    return 1.0 + P


def joint_decode_threshold(K: int, P: float) -> float:
    """a^2 >= ((1+P)^(K-1) - 1)(1+P) / ((K-1)P): jointly decode all K-1 interferers."""
    if K < 2:
        raise ValueError("K must be >= 2")
    if P <= 0:
        raise ValueError("P must be positive")
    return ((1.0 + P) ** (K - 1) - 1.0) * (1.0 + P) / ((K - 1) * P)


def alignment_threshold(P: float) -> float:
    """a^2 >= (P+1)^2 / P: decode the aligned interference sum, any K.

    At or below joint_decode_threshold(K, P) iff (1+P)^(K-1) - 1 >= (K-1)(1+P):
    never at K = 2, for P >= sqrt(2) at K = 3, for every P >= 1 once K >= 4.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    return (P + 1.0) ** 2 / P


def interference_free_capacity(P: float) -> float:
    """0.5 * log2(1 + P), the per-user rate with no interference."""
    if P <= 0:
        raise ValueError("P must be positive")
    return 0.5 * math.log2(1.0 + P)


def theorem2_rate(P: float) -> float:
    """0.5 * log2(P), achievable whenever a^2 >= P + 1 (positive only for P > 1).

    Within half a bit of the interference-free capacity for all P > 0.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    return 0.5 * math.log2(P)


def rate_constraints(P: float, a: float) -> tuple[float, float]:
    """Both lattice-rate ceilings: (own message, interference decoding).

    c1 = 0.5*log2(1+P), c2 = 0.5*log2(a^2 P / (1+P)); min(c1, c2) is the
    lattice rate the two-stage scheme supports.  They cross exactly at
    a^2 = (P+1)^2 / P.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    if a == 0:
        raise ValueError("a must be nonzero")
    c1 = 0.5 * math.log2(1.0 + P)
    c2 = 0.5 * math.log2(a * a * P / (1.0 + P))
    return c1, c2


LABEL_ALIGNMENT = "alignment-very-strong"
LABEL_THEOREM2 = "theorem2-half-bit"
LABEL_BELOW = "not-very-strong"


@dataclass(frozen=True)
class RegimeReport:
    """Thresholds, classification and achievable symmetric rate at one point."""

    K: int
    P: float
    a_squared: float
    thresholds: dict
    label: str
    joint_decode_met: bool
    rate: float


def classify(K: int, P: float, a: float) -> RegimeReport:
    """Classify (K, P, a) against every threshold.

    Label "alignment-very-strong" at a^2 >= (P+1)^2/P (rate = capacity),
    else "theorem2-half-bit" at a^2 >= P+1 (rate = max(0, 0.5*log2 P)),
    else "not-very-strong" (no rate guaranteed here).  The joint-decode
    flag is set independently; that scheme also reaches capacity, so the
    rate accounts for it.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    a2 = a * a
    thresholds = {
        "two_user": two_user_threshold(P),
        "joint_decode": joint_decode_threshold(K, P),
        "alignment": alignment_threshold(P),
    }
    joint_met = a2 >= thresholds["joint_decode"]
    if a2 >= thresholds["alignment"]:
        label = LABEL_ALIGNMENT
        rate = interference_free_capacity(P)
    elif a2 >= thresholds["two_user"]:
        label = LABEL_THEOREM2
        rate = interference_free_capacity(P) if joint_met else max(0.0, theorem2_rate(P))
    else:
        label = LABEL_BELOW
        rate = interference_free_capacity(P) if joint_met else 0.0
    return RegimeReport(
        K=K,
        P=P,
        a_squared=a2,
        thresholds=thresholds,
        label=label,
        joint_decode_met=joint_met,
        rate=rate,
    )


def format_report(report: RegimeReport) -> str:
    t = report.thresholds
    lines = [
        f"K = {report.K}   P = {report.P:g}   a^2 = {report.a_squared:g}",
        f"  two-user threshold      (a^2): {t['two_user']:.6g}",
        f"  joint-decode threshold  (a^2): {t['joint_decode']:.6g}",
        f"  alignment threshold     (a^2): {t['alignment']:.6g}",
        f"  interference-free capacity   : {interference_free_capacity(report.P):.6g} bit/use",
        f"  half-bit-gap rate            : {theorem2_rate(report.P):.6g} bit/use",
        f"  joint-decode condition met   : {report.joint_decode_met}",
        f"  classification               : {report.label}",
        f"  achievable symmetric rate    : {report.rate:.6g} bit/use",
    ]
    return "\n".join(lines)
