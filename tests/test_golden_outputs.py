"""Golden digests: the sha256 of every output file of small seeded configs.

One config per subcommand (all three simulate modes), run through
`run_experiment`.  A change that alters any output byte fails here; a
change that does so on purpose regenerates DIGESTS (run this file's
`_digests` on each config) and says so in CHANGES.md.
"""

import hashlib
import os

import pytest

from icalign.cli_harness import parse_config, run_experiment

CONFIGS = {
    "regime": """
subcommand = regime
K = 2, 3, 5
P = 0.5, 15
a2 = 1, 4, 300
""",
    "two_stage": """
subcommand = simulate
K = 3
a2 = 4, 16
P = 1
n = 4
p = 3
R_frac = 0.8
trials = 40
seed = 7
""",
    "lattice_only": """
subcommand = simulate
mode = lattice_only
K = 3
a2 = 9
P = 2
Pprime = 0.5
n = 4
p = 3
R = 0.4
Rprime = 1.2
trials = 30
seed = 3
""",
    "no_interference": """
subcommand = simulate
mode = no_interference
K = 2
a2 = 0
P = 3
n = 3
R_frac = 0.5
trials = 30
seed = 11
""",
    "det": """
subcommand = det
K = 2, 3
n_d = 1, 2
n_c = 0, 3, 4
""",
    "lattice": """
subcommand = lattice
n = 4
p = 3
P = 2
R = 0.4
Rprime = 1.2
seed = 5
""",
}

DIGESTS = {
    'det': {
        'det_det.csv':
            '7c432a9ff7681baf511c53ba7e005cf677dd24f095bf262d227763b165e746d7',
        'det_det.json':
            '33fff57c38d8c29a9943322dbd10eb6033d6b3cd40988902d428d2a68a3add8c',
    },
    'lattice': {
        'lattice_lattice.csv':
            '74c076b8d1644f054a24fdab143a05be1ada33825e8690f25611dd613f723d19',
        'lattice_lattice.json':
            '7062223af1f0f61d0ddd196327628789693d7e608fd37647919d2dc9d5d57da0',
        'lattice_codebook.csv':
            '1fdf9e54a7ce91fd7a7cb3d843d569652dae2f401991ade20138c4829ff304f7',
        'lattice_lattice.txt':
            '6869ce7205b518abde58f1092b665e78308cb8281cfb4fad68e76e3fea2d39ad',
    },
    'lattice_only': {
        'lattice_only_simulate.csv':
            'c380800d08cb30b5466f7b46ba314dcce5593ca2a885518d0ee52c6efb21402e',
        'lattice_only_simulate_blocks.csv':
            '7324dac600939822d7b901ad91c27e95cee7431318497d9c3f39b254bdc2ceab',
        'lattice_only_simulate.json':
            '877426a0defe75da3fb0614c4b9277a1c95fa1103031e1637936331a08461d23',
    },
    'no_interference': {
        'no_interference_simulate.csv':
            '1bb8b4cbf261843da0ac8e069b3d114741266b1980472d9eee8b47095928c682',
        'no_interference_simulate_blocks.csv':
            'f3937ae64d788e0a2c4f0d0cf3f15837d4103d68e091e8fe1b43f9c16877fa45',
        'no_interference_simulate.json':
            '8f64ae6270e51faa8039e5660d892db8fcfbd6b51072354ec9b48cfca76ba585',
    },
    'regime': {
        'regime_regime.csv':
            'fcf7dee92c162327204278cd16c917dff329fff07ede3120da0eedd906680171',
        'regime_regime.json':
            '00d12bd248bc5c8f9a3cac6ed0b5eaebff4659467759f0cce17305538e4062d9',
    },
    'two_stage': {
        'two_stage_simulate.csv':
            '25f868c5dd5ac02306c1d1b468158b856e1a6ab6f9c48835d22a971962956741',
        'two_stage_simulate_blocks.csv':
            'c4c72093d25d26be029b94b75f4648325fca31190326901e73d5c70c50b52e89',
        'two_stage_simulate.json':
            '328ab2d462a8827fe85894cf5079682a1821408b287ab284b9e68d8b949b0d51',
    },
}


def _digests(name: str, out_dir) -> dict:
    spec = parse_config(f"name = {name}\nout = {out_dir}\n" + CONFIGS[name])
    _, written = run_experiment(spec)
    return {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
            for p in written}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_digests_unchanged(name, tmp_path):
    assert _digests(name, tmp_path) == DIGESTS[name]
