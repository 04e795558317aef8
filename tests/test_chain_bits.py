"""The chain layer pinned bit for bit against plainly spelled references.

``decompose`` and the ``reorder_chain`` sweeps are written here step by step in
the most direct numpy spelling: ``np.angle`` of the corner, the characteristic
vector as ``np.exp(-1j * beta) * col / norm``, ``np.linalg.norm`` for the final
vectors, the flagged columns of each sweep found row by row, and every factor
applied through a plain rank-2 update with a row-major temporary.  The library
spells the same arithmetic for speed; every array it returns must have the same
bytes.  numpy's complex product is not symmetric in its operands (it may fuse
multiply-adds), so a swapped operand order anywhere shows up here.
"""

import math

import numpy as np
import pytest

from helpers import edge_chain
from unichain.matrix_core import haar_random, wrap_angles
from unichain.recursive_param import (
    ASCENDING,
    DESCENDING,
    compose,
    decompose,
    gauge_fix,
    reorder_chain,
)


def ref_apply(theta, a, rows):
    """block(theta, a) applied in place to the first len(a) + 1 rows of *rows*."""
    k = a.size + 1
    c, s = math.cos(theta), math.sin(theta)
    top, last = rows[: k - 1], rows[k - 1]
    p = a.conj() @ top
    q = (c - 1.0) * p
    q += s * last
    top += a[:, None] * q
    last *= c
    last -= s * p


def ref_peel(x):
    """decompose's peel loop: the angles, the vector array and the right phases."""
    n = x.shape[0]
    w = np.array(x, dtype=np.complex128)
    thetas = np.zeros(n - 1)
    chars = np.zeros((n - 1, n - 1), dtype=np.complex128, order="F")
    betas = np.zeros(n)
    for k in range(n, 1, -1):
        m = w[:k, :k]
        corner, col = m[k - 1, k - 1], m[: k - 1, k - 1]
        norm = math.sqrt(np.vdot(col, col).real)
        theta = math.atan2(norm, abs(corner))
        beta = float(np.angle(corner)) if corner != 0 else 0.0
        u = chars[: k - 1, k - 2]
        if norm > 0:
            u[:] = np.exp(-1j * beta) * col / norm
            u /= math.sqrt(np.vdot(u, u).real)
        else:
            u[k - 2] = 1.0
        thetas[k - 2] = theta
        ref_apply(-theta, u, m)
        betas[k - 1] = beta
    betas[0] = float(np.angle(w[0, 0]))
    return thetas, chars, betas


def ref_columns(row):
    cols = row.nonzero()[0]
    lo, hi = int(cols[0]), int(cols[-1]) + 1
    return slice(lo, hi) if hi - lo == cols.size else cols


def ref_reorder(d, target):
    """reorder_chain's two sweeps: the vector array of the chain in *target* order."""
    n = d.ambient_n
    ranks = np.argsort([d.orders, target], axis=1)
    above = np.triu(np.ones((n - 1, n - 1), dtype=bool), 1)  # [l - 2, k - 2]: l < k
    s_up, t_up = above & (ranks[:, :, None] < ranks[:, None, :])
    moved = (s_up != t_up).any(axis=0)
    s_work, t_work = s_up & moved, t_up & moved
    src = d.chars
    chars = np.array(src, order="F")

    def sweep(theta, a, l, cols):
        sub = chars[:l, cols]
        ref_apply(theta, a, sub)
        if not isinstance(cols, slice):
            chars[:l, cols] = sub

    for l in reversed(d.orders.tolist()):
        if s_work[l - 2].any():
            sweep(d.thetas[l - 2], src[: l - 1, l - 2], l, ref_columns(s_work[l - 2]))
    for k in target:
        a = src[: k - 1, k - 2]
        if moved[k - 2]:
            a = chars[: k - 1, k - 2]
            a /= np.linalg.norm(a)
        if t_work[k - 2].any():
            sweep(-d.thetas[k - 2], a, k, ref_columns(t_work[k - 2]))
    return chars


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def check_chain(x, rng):
    """decompose, monotone and mixed reorders and gauge_fix of *x* against the references."""
    n = x.shape[0]
    d = decompose(x)
    thetas, chars, betas = ref_peel(x)
    assert_same_bytes(d.thetas, thetas)
    assert_same_bytes(d.chars, chars)
    assert_same_bytes(d.right_phases, betas)
    assert_same_bytes(d.left_phases, np.zeros(n))
    asc = reorder_chain(d, range(2, n + 1))
    assert_same_bytes(asc.chars, ref_reorder(d, list(range(2, n + 1))))
    desc = list(range(n, 1, -1))
    assert_same_bytes(reorder_chain(asc, desc).chars, ref_reorder(asc, desc))
    for _ in range(2 if n >= 4 else 0):
        target = [int(k) for k in rng.permutation(np.arange(2, n + 1))]
        for source in (d, asc):
            assert_same_bytes(reorder_chain(source, target).chars, ref_reorder(source, target))
    for c in (d, asc):
        assert_same_bytes(c.thetas, thetas)
    if n >= 2:
        g = gauge_fix(asc)
        last = np.diagonal(asc.chars)
        phi = np.zeros(n)
        for k in range(n, 1, -1):
            phi[k - 2] = phi[k - 1] - float(np.angle(last[k - 2]))
        for k in range(2, n + 1):
            want = np.exp(1j * (phi[: k - 1] - phi[k - 1])) * asc.chars[: k - 1, k - 2]
            want[k - 2] = abs(last[k - 2])
            if k == 2:
                want[0] = 1.0
            assert_same_bytes(g.chars[: k - 1, k - 2], want)
        assert_same_bytes(g.left_phases, wrap_angles(asc.left_phases - phi))
        assert_same_bytes(g.right_phases, wrap_angles(asc.right_phases + phi))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 64])
def test_haar_chains_match_the_references(n):
    rng = np.random.Generator(np.random.PCG64(900 + n))
    for seed in range(3 if n == 64 else 5):
        check_chain(haar_random(n, 9000 + seed), rng)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_edge_chains_match_the_references(n):
    rng = np.random.Generator(np.random.PCG64(950 + n))
    for i in range(6):
        d = edge_chain(rng, n, (ASCENDING, DESCENDING)[i % 2], (0.0, 1e-12, math.pi / 2))
        check_chain(compose(d), rng)
        for target in (range(2, n + 1), range(n, 1, -1), rng.permutation(np.arange(2, n + 1))):
            target = [int(k) for k in target]
            assert_same_bytes(reorder_chain(d, target).chars, ref_reorder(d, target))
        # A permuted phase matrix: exactly zero corners and columns take the conventions.
        check_chain(np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, n)))[rng.permutation(n)], rng)

