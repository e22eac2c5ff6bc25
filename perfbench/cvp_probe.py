"""CVP exactness probe: `nearest_lattice_point` against a coset-scan oracle.

The oracle is the coset-scan formula of the exact decoder as first
written (per-coset half-down rounding, global argmin, lexicographic
tie-break), kept here so that a faster decoder in the package is compared
with it bit for bit.  Targets are tie-heavy: half-integer offsets and
midpoints of two lattice points, plus plain Gaussian targets.  Each target
is decoded twice: once with the decoder enumerating the codewords itself,
and once with `codewords=` precomputed by `enumerate_codewords`, as the
simulator calls it.
"""

from __future__ import annotations

import itertools

import numpy as np

PROBE_STREAM = 7  # rng substream tag, apart from the package's own tags
TARGETS_PER_KIND = 12


def coset_leaders(lat) -> np.ndarray:
    """All p^k codewords of the lattice's code, one per coset of p*Z^n."""
    msgs = np.array(list(itertools.product(range(lat.p), repeat=lat.k)), dtype=np.int64)
    return (msgs.reshape(lat.p**lat.k, lat.k) @ lat.code.G) % lat.p


def oracle_nearest(lat, codewords, target, scale: float = 1.0) -> tuple[np.ndarray, int]:
    """Closest point of scale*gamma*Lambda_C and the number of tied minimizers."""
    t = np.asarray(target, dtype=float)
    cell = abs(scale) * lat.gamma
    Z = np.ceil((t / cell - codewords) / lat.p - 0.5)
    cand = cell * (codewords + lat.p * Z)
    d2 = ((cand - t) ** 2).sum(axis=1)
    idx = np.nonzero(d2 == d2.min())[0]
    best = idx[np.lexsort(cand[idx].T[::-1])[0]]  # first coordinate is primary key
    return cand[best].copy(), int(idx.size)


def _targets(lat, codewords, scale: float, rng) -> list[np.ndarray]:
    n, p = lat.n, lat.p
    cell = abs(scale) * lat.gamma

    def lattice_point():
        return codewords[rng.integers(len(codewords))] + p * rng.integers(-2, 3, size=n)

    out = []
    for _ in range(TARGETS_PER_KIND):
        out.append(cell * (rng.integers(-3, 4, size=n) + 0.5 * rng.integers(0, 2, size=n)))
        out.append(cell * (lattice_point() + lattice_point()) / 2.0)
        out.append(cell * p * rng.standard_normal(n))
    return out


def run_probe(nearest_lattice_point, enumerate_codewords, lattices, scales,
              seed: int) -> dict:
    """Compare the package decoder with the oracle on every (lattice, scale).

    Returns the number of decoder calls (queries), of mismatches, of
    targets with more than one minimizer, and up to five mismatch
    descriptions.
    """
    rng = np.random.default_rng([seed, PROBE_STREAM])
    queries = mismatches = tied = 0
    examples = []
    for lat in lattices:
        codewords = coset_leaders(lat)
        precomputed = enumerate_codewords(lat.code)
        for scale in scales:
            for t in _targets(lat, codewords, scale, rng):
                want, ties = oracle_nearest(lat, codewords, t, scale)
                tied += ties > 1
                for kwargs in ({}, {"codewords": precomputed}):
                    got = np.asarray(nearest_lattice_point(lat, t, scale=scale, **kwargs))
                    queries += 1
                    if got.shape != want.shape or got.tobytes() != want.tobytes():
                        mismatches += 1
                        if len(examples) < 5:
                            examples.append(f"scale={scale!r} codewords={bool(kwargs)} "
                                            f"target={t.tolist()} got={got.tolist()} "
                                            f"want={want.tolist()}")
    return {"queries": queries, "mismatches": mismatches, "tied": tied,
            "examples": examples}
