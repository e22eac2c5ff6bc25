import importlib.util
import inspect
import os

import icalign
from icalign.cli_harness import run_experiment
from icalign.lattice_geometry import nearest_lattice_point
from icalign.zp_codes import ConstructionALattice, enumerate_codewords, sample_code

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_keeps_what_the_benchmark_reaches():
    """The names and keywords perfbench/ reaches in the package still exist.

    perfbench/ changes only in a benchmark change of its own, so a package
    change that drops one of these would first fail at benchmark time (the
    tracer prints `site not found` and reports "correct": false); it fails
    here first instead.  ROADMAP item 1 drops the probe's `codewords=` call,
    the `gaussian_sim.enumerate_codewords` site and `run_experiment(threads=)`
    from perfbench/, and with them the package's two shims and the last two
    assertions of this test.
    """
    tracer = load_perfbench("tracer")
    owners = tracer.Tracer(icalign)
    missing = [f"{site}.{attr}" for _, site, attr, _, _ in tracer.SITES
               if attr not in getattr(owners._owner(site), "__dict__", {})]
    assert missing == []

    # perfbench/cvp_probe.py decodes each target with and without codewords=
    lat = ConstructionALattice(sample_code(3, 5, 2, 4), 0.8)
    probe = load_perfbench("cvp_probe").run_probe(
        nearest_lattice_point, enumerate_codewords, [lat], [1.0, -2.5], seed=1)
    assert probe["queries"] == 144 and probe["mismatches"] == 0

    assert "threads" in inspect.signature(run_experiment).parameters
