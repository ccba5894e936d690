# netreduce first: its import sets the one-BLAS-thread default, which only
# acts while numpy is not yet loaded. netreduce.cli loads every module of the
# package before the first draw: hypothesis mixes literals of the loaded
# local modules into its examples, so a derandomized test then draws the same
# examples alone and in the full suite (checked below, at the end of the session)
import netreduce.cli

import pathlib
import sys

import numpy as np
import pytest

from netreduce import NetworkModel, RationalTF, WsbmParams, laplacian, sample_adjacency, step_chunks
from netreduce.simulate import sample_steps
from netreduce.transfer import sample_swing_nodes

# block sizes, connection probabilities and weights of the synthetic
# three-group test case used throughout the suite
EQ15_SIZES = (20, 40, 20)
EQ15_Q = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
EQ15_W = [[20.0, 0.4, 0.8], [0.4, 20.0, 0.7], [0.8, 0.7, 20.0]]

COUPLING_INTEGRATOR = RationalTF((1.0,), (0.0, 1.0))  # f(s) = 1/s

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_DIR = pathlib.Path(netreduce.cli.__file__).resolve().parent


def loaded_local_modules():
    """Files of the loaded modules under the repository root, outside ``tests/``,
    and of the loaded ``netreduce`` modules wherever it is installed: the
    modules whose literals hypothesis mixes into its draws."""
    files = {pathlib.Path(m.__file__).resolve() for m in list(sys.modules.values()) if getattr(m, "__file__", None)}
    return {
        p
        for p in files
        if p.is_relative_to(PACKAGE_DIR) or (p.is_relative_to(ROOT) and not p.is_relative_to(ROOT / "tests"))
    }


@pytest.fixture(scope="session", autouse=True)
def local_modules_stay_the_package():
    # a test that loads a module of tools/ or perfbench/ in this process
    # changes the draws of every derandomized test after it
    yield
    assert loaded_local_modules() == set(PACKAGE_DIR.glob("*.py"))


@pytest.fixture(scope="session")
def eq15_params():
    return WsbmParams(EQ15_SIZES, EQ15_Q, EQ15_W)


def make_swing_model(params, seed, coupling=COUPLING_INTEGRATOR):
    """Sampled network with first-order swing nodes; returns (model, gamma)."""
    lap = laplacian(sample_adjacency(params, seed))
    rng = np.random.default_rng([seed, 1])
    nodes, _, d = sample_swing_nodes(params.n, rng)
    return NetworkModel(nodes=nodes, coupling=coupling, laplacian=lap), 1.0 / d.min()


def step_outputs(loop, input_node, t_end, dt, state_limit=1e12):
    """Times and outputs of the ``step_chunks`` stream, collected into two arrays.

    The output array is allocated after the first chunk, when the
    temporaries of the matrix exponential are freed, and each chunk is
    freed before the next is computed; so a traced peak counts the array
    beside the stepper's own memory, not on top of its exponential.
    """
    out, row = None, 0
    for _, y in step_chunks(loop, input_node, t_end, dt, state_limit):
        if out is None:
            out = np.empty((sample_steps(t_end, dt) + 1, y.shape[1]))
        out[row : row + len(y)] = y
        row += len(y)
        del y
    return np.arange(len(out)) * dt, out


def random_wsbm(rng, k=None, strong=True):
    """Random WSBM parameters with a positive intra/inter margin."""
    while True:
        kk = k or int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(8, 30, size=kk))
        q = np.full((kk, kk), 0.0)
        w = np.zeros((kk, kk))
        for i in range(kk):
            for j in range(i, kk):
                if i == j:
                    q[i, i] = rng.uniform(0.6, 1.0)
                    w[i, i] = rng.uniform(5.0, 25.0)
                else:
                    q[i, j] = q[j, i] = rng.uniform(0.02, 0.1)
                    w[i, j] = w[j, i] = rng.uniform(0.05, 0.6)
        params = WsbmParams(sizes, q, w)
        b = params.b
        rho = max(sizes) / min(sizes)
        off = b.sum(axis=1) - np.diag(b)
        delta = np.diag(b).min() - 2 * rho * off.max()
        if not strong or delta > 0:
            return params
