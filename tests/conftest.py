import os
import sys
from pathlib import Path

import pytest

from dstable import DSParams

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable
# `python -m dstable` subprocesses import the package from the same source tree
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# alpha in {0.3, 0.7, 1.0, 1.3, 2.0} with three valid (gamma, delta) pairs each
PARAM_GRID = [
    (0.3, -1.0, 0.0),
    (0.3, -1.0, 1.0),
    (0.3, -0.5, 0.3),
    (0.7, -1.0, 0.0),
    (0.7, -1.0, 0.5),
    (0.7, -2.0, 2.0),
    (1.0, 0.0, 2.0),
    (1.0, 1.0, 2.0),
    (1.0, 0.5, 3.0),
    (1.3, 1.0, 2.0),
    (1.3, 0.5, 1.0),
    (1.3, 2.0, 3.0),
    (2.0, 1.0, 2.0),
    (2.0, 1.0, 3.0),
    (2.0, 0.5, 4.0),
]


@pytest.fixture(params=PARAM_GRID, ids=lambda t: f"a{t[0]}g{t[1]}d{t[2]}")
def grid_params(request) -> DSParams:
    alpha, gamma, delta = request.param
    return DSParams(alpha, gamma, delta)
