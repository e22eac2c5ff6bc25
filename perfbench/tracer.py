"""Outside-in tracer: wraps each layer's public functions where the caller looks them up.

Nothing under src/ changes.  Each wrapped call is a span; a span's self
time is its duration minus the time of the spans it caused.  Spans are
kept per thread, so under a thread pool self times are thread-seconds.
Only aggregates (calls, total, self and a few counters) are kept.
"""

from __future__ import annotations

import threading
import time
import types
from collections import defaultdict


def _points(args, kwargs, result):
    return len(result)


def _coset_evals(args, kwargs, result):
    lat = args[0]
    return lat.p ** lat.k


def _index_hits(args, kwargs, result):
    return result is not None


def _det_tuples(args, kwargs, result):
    cfg = args[0]
    return cfg.K * 2 ** (cfg.K * cfg.n_d)


# (span name, module attribute path of the call site, attribute, counter, counter fn).
# The call site is the namespace the calling code looks the name up in,
# so e.g. find_shift is wrapped inside cli_harness, which imported it.
SITES = (
    ("zp_codes.design_lattice", "cli_harness", "design_lattice", None, None),
    ("lattice_geometry.find_shift", "cli_harness", "find_shift", None, None),
    ("lattice_geometry.build_codebook", "lattice_geometry", "build_codebook", "points", _points),
    ("zp_codes.enumerate_codewords", "lattice_geometry", "enumerate_codewords", None, None),
    ("zp_codes.enumerate_codewords", "gaussian_sim", "enumerate_codewords", None, None),
    ("gaussian_sim.run_monte_carlo", "gaussian_sim", "run_monte_carlo", None, None),
    ("gaussian_sim.channel_output", "gaussian_sim", "channel_output", None, None),
    ("zp_codes.is_lattice_point", "gaussian_sim", "is_lattice_point", None, None),
    ("gaussian_sim.decode_interference_sum", "gaussian_sim", "decode_interference_sum", None, None),
    ("lattice_geometry.nearest_lattice_point", "gaussian_sim", "nearest_lattice_point",
     "coset_evals", _coset_evals),
    ("lattice_geometry.nearest_codeword", "gaussian_sim", "nearest_codeword", None, None),
    ("gaussian_sim.lattice_only_decode", "gaussian_sim", "lattice_only_decode", None, None),
    ("lattice_geometry.Codebook.index_of", "lattice_geometry.Codebook", "index_of",
     "hits", _index_hits),
    ("det_channel.det_capacity_check", "det_channel", "det_capacity_check", "tuples", _det_tuples),
)

RNG_SPAN = "gaussian_sim.rng_setup"
ROOT_SPAN = "cli_harness.run_experiment"


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.table: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0  # duration of spans opened with no parent
        self.mc_starts: list[float] = []
        self.setup_end = 0.0


class Tracer:
    """Collects spans while installed; `report()` merges all threads."""

    def __init__(self, package):
        self._pkg = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[bool, _ThreadState]] = []
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append((threading.get_ident() == self._main, st))
        return st

    def wrap(self, name, fn, counter=None, count_fn=None):
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            st.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = st.stack.pop()
                dur = t1 - t0
                rec = st.table.get(name)
                if rec is None:
                    rec = st.table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if st.stack:
                    st.stack[-1] += dur
                else:
                    st.root_s += dur
            if counter is not None:
                st.counters[f"{name}.{counter}"] += count_fn(args, kwargs, result)
            if name == "gaussian_sim.run_monte_carlo":
                st.mc_starts.append(t0)
            elif name == "lattice_geometry.find_shift":
                st.setup_end = max(st.setup_end, t1)
            return result

        return traced

    def _owner(self, path: str):
        obj = self._pkg
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for name, site, attr, counter, count_fn in SITES:
            owner = self._owner(site)
            if owner is None or attr not in owner.__dict__:
                self.missing.append(f"{site}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], counter, count_fn))
        # default_rng is reached as np.random.default_rng inside gaussian_sim:
        # give that module a numpy whose random.default_rng is traced.
        gs = self._pkg.gaussian_sim
        np = gs.np
        rand = types.ModuleType(np.random.__name__)
        rand.__dict__.update(np.random.__dict__)
        rand.default_rng = self.wrap(RNG_SPAN, np.random.default_rng)
        np_traced = types.ModuleType(np.__name__)
        np_traced.__dict__.update(np.__dict__)
        np_traced.random = rand
        self._patch(gs, "np", np_traced)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def report(self) -> dict:
        """Merged per-span stats plus the counters the benchmark reports."""
        spans: dict[str, list] = {}
        counters: dict[str, float] = defaultdict(float)
        worker_root_s = 0.0
        mc_starts: list[float] = []
        setup_end = 0.0
        for is_main, st in self._states:
            for name, (calls, total, self_s) in st.table.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for k, v in st.counters.items():
                counters[k] += v
            if not is_main:
                worker_root_s += st.root_s
            mc_starts.extend(st.mc_starts)
            setup_end = max(setup_end, st.setup_end)
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(spans.items())},
            "counters": dict(counters),
            "worker_root_s": worker_root_s,
            "mc_starts": mc_starts,
            "setup_end": setup_end,
            "missing_sites": list(self.missing),
        }
