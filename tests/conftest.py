"""Shared test helpers."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slcrit as sl
from slcrit import sampling

SRC = Path(__file__).resolve().parent.parent / "src"

#: address-space limit of a CLI subprocess: far above what a run needs, far
#: below what a runaway allocation would take
ADDRESS_SPACE = 1536 * 2 ** 20


def _limit_address_space(limit: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def run_cli(args, timeout: float = 60.0, address_space: int = ADDRESS_SPACE):
    """``slcrit <args>`` in a fresh interpreter under an address-space limit.

    Returns the CompletedProcess (text output); raises subprocess.TimeoutExpired
    when the run outlives ``timeout`` seconds.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "slcrit.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_limit_address_space(address_space))


@pytest.fixture()
def slcrit_subprocess():
    """The ``run_cli`` helper: the CLI in a memory-limited, timed subprocess."""
    return run_cli


@pytest.fixture(scope="session")
def corpus():
    """Named potentials covering every kind of term and piece.

    Random complex piecewise cubics with jumps, Miura images, the
    counterexamples s1 and s2, the spike profile gamma at h = 1000, a delta
    sum, and a hand-made model with two reciprocal slots, a piece without a
    polynomial and an empty piece.
    """
    rng = np.random.default_rng(20240801)
    out = [(f"random{k}", sampling.random_antiderivative(rng, domain_end=6.0, pieces=6, jumps=2))
           for k in range(3)]
    out += [(f"miura{k}", sl.miura(sampling.random_gamma(rng, domain_end=6.0), 0.0))
            for k in range(2)]
    out.append(("s1", sl.build_counterexample("s1", blocks=2)))
    out.append(("s2", sl.build_counterexample(
        "s2", theta=0.5, schedule=[(2, 4.0, 2.0), (5, 8.0, 5.2)])))
    out.append(("vh1000", sl.vh_profile(1000.0)[1]))
    out.append(("delta", sl.delta_sum([0.5, 1.25, 2.0], [1.0, -2.0 + 1.0j, 0.5], 3.0)))
    out.append(("slots", sl.Antiderivative(
        3.0, (0.0, 1.0, 2.0, 3.0),
        ((sl.PolyTerm((1.0, -2.0j, 0.5, 0.25)), sl.RecipTerm(1.0, -0.5),
          sl.RecipTerm(2.0j, 3.5)),
         (sl.RecipTerm(-1.5, 0.5), sl.RecipTerm(0.25 + 1.0j, 2.5)),
         ()),
        ((1.0, 0.5 - 0.5j), (2.0, -1.0)))))
    return out
