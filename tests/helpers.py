"""Shared construction helpers for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import unichain
from unichain.recursive_param import ASCENDING, DESCENDING, Decomposition, Factor


def cli_env():
    """The environment in which ``python -m unichain`` imports the package the tests import."""
    src = str(Path(unichain.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_cli(args, stdin=None, **kwargs):
    """Run ``python -m unichain`` from the package the tests import."""
    return subprocess.run(
        [sys.executable, "-m", "unichain", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=cli_env(),
        **kwargs,
    )


def random_char(rng, length):
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return v / np.linalg.norm(v)


def random_ascending_chain(rng, n, zero_phases=False):
    factors = tuple(
        Factor(n, k, rng.uniform(0, math.pi / 2), random_char(rng, k - 1))
        for k in range(2, n + 1)
    )
    if zero_phases:
        left = right = np.zeros(n)
    else:
        left = rng.uniform(-math.pi, math.pi, n)
        right = rng.uniform(-math.pi, math.pi, n)
    return Decomposition(n, factors, left, right, ASCENDING)


def edge_chain(rng, n, order, angles):
    """A chain over n tagged *order* (ascending or descending) with each angle drawn from
    *angles*, exactly zero vector components (each with probability 1/3, never a whole
    vector) and uniform phases."""
    factors = []
    for k in range(2, n + 1):
        v = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
        zero = rng.random(k - 1) < 1 / 3
        zero[rng.integers(k - 1)] = False
        v[zero] = 0.0
        theta = angles[int(rng.integers(len(angles)))]
        factors.append(Factor(n, k, theta, v / np.linalg.norm(v)))
    if order == DESCENDING:
        factors.reverse()
    left, right = rng.uniform(-math.pi, math.pi, (2, n))
    return Decomposition(n, tuple(factors), left, right, order)


def pinned_chain_n4(rng):
    """Random ascending n=4 chain with the order-2 scalar pinned to 1."""
    t2, t3, t4 = rng.uniform(0.2, 1.4, 3)
    x = random_char(rng, 2)
    y = random_char(rng, 3)
    factors = (Factor(4, 2, t2, [1.0]), Factor(4, 3, t3, x), Factor(4, 4, t4, y))
    return Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING)


def texture_params(rng):
    """Chain parameters forcing zeros at entries (3,4) and (4,3) of the
    composed matrix: last component of y vanishes and y is orthogonal to x
    in the pairing x1 conj(y1) + x2 conj(y2)."""
    t2, t3, t4 = rng.uniform(0.3, 1.3, 3)
    x = random_char(rng, 2)
    psi = rng.uniform(-math.pi, math.pi)
    y = np.exp(1j * psi) * np.array([np.conj(x[1]), -np.conj(x[0]), 0.0])
    return (t2, t3, t4), x, y


def texture_matrix(rng):
    """A 4x4 unitary with exact zeros at (3,4) and (4,3), others generic."""
    from unichain.recursive_param import compose

    (t2, t3, t4), x, y = texture_params(rng)
    factors = (Factor(4, 2, t2, [1.0]), Factor(4, 3, t3, x), Factor(4, 4, t4, y))
    return compose(Decomposition(4, factors, np.zeros(4), np.zeros(4), ASCENDING))
