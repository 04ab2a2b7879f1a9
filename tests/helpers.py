"""Seeded data generators and fixed example frames shared across the suite."""

from __future__ import annotations

import numpy as np

import framescale as fs


def unit_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def random_unit_frame(rng: np.random.Generator, n: int, m: int) -> fs.Frame:
    """Unit-norm frame with m vectors spanning R^n."""
    for _ in range(32):
        frame = fs.Frame(unit_rows(rng, m, n))
        if frame.is_frame():
            return frame
    raise RuntimeError("failed to draw a spanning frame")


def clustered_unit_frame(
    rng: np.random.Generator, n: int, m: int, spread: float, max_closeness: float | None = None
) -> fs.Frame:
    """Unit-norm spanning frame whose vectors sit within a small cluster."""
    for _ in range(64):
        center = rng.standard_normal(n)
        center /= np.linalg.norm(center)
        X = center + spread * rng.standard_normal((m, n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        frame = fs.Frame(X)
        if not frame.is_frame():
            continue
        if max_closeness is not None and fs.pairwise_closeness(frame) > max_closeness:
            continue
        return frame
    raise RuntimeError("failed to draw a clustered spanning frame")


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q


def random_onb_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)))[0].T


def open_quadrant_frame(rng: np.random.Generator, m: int) -> fs.Frame:
    """Spanning family of unit vectors with strictly positive coordinates."""
    for _ in range(32):
        X = rng.uniform(0.05, 1.0, size=(m, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        frame = fs.Frame(X)
        if frame.is_frame():
            return frame
    raise RuntimeError("failed to draw a spanning quadrant frame")


def mercedes_frame() -> fs.Frame:
    s = np.sqrt(3.0) / 2.0
    return fs.Frame([[0.0, 1.0], [-s, -0.5], [s, -0.5]])


def tilted_pair_frame(eps: float) -> fs.Frame:
    """Unit pair in R^2: one vector nearly vertical, one on the diagonal."""
    r = np.sqrt(2.0) / 2.0
    return fs.Frame([[eps, np.sqrt(1.0 - eps**2)], [r, r]])


def blocked_split_frame() -> fs.Frame:
    """Basis of R^4 whose coordinate split scales on each side but never jointly."""
    return fs.Frame(
        [
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )


def r3_fixture() -> fs.Frame:
    return fs.Frame([[1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0], [0.0, 0.0, 1.0]])


def r4_special_fixture() -> fs.Frame:
    return fs.Frame(
        [
            [0.5, 0.5, 0.5, 0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )


def r4_special_expected_basis() -> np.ndarray:
    r = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [0.0, 0.0, r, r],
            [-r, r, 0.0, 0.0],
            [0.0, 0.0, r, -r],
            [r, r, 0.0, 0.0],
        ]
    )


def reference_search_piecewise(frame, ranks=None, budget: int = 100, seed: int = 0, tol: float = fs.DEFAULT_TOL):
    """Sequential search_piecewise: every candidate through the solver, no screening.

    A copy of the search before candidates were screened in batches; the
    differential tests compare the library's search against it.
    """
    from framescale.piecewise import (
        _complement_form,
        _disjoint_split_candidate,
        construct_r2,
        construct_r3,
    )
    from framescale.projections import _random_projection

    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    fr = frame if isinstance(frame, fs.Frame) else fs.Frame(frame)
    n = fr.dim
    wanted = set(range(1, n)) if ranks is None else {int(k) for k in ranks} & set(range(1, n))
    valid = sorted(wanted)
    if not valid or not fr.is_frame():
        return None
    X = fr.vectors
    verdict = fs.solve_standard_scaling(X, None, tol)
    if verdict.feasible:
        c = verdict.scaling.constants
        ps = fs.PiecewiseScaling(fs.canonical_projection(range(valid[0]), n), c, c)
        if fs.verify_piecewise(fr, ps, tol).passed:
            return ps
    if n <= 3:
        try:
            built = (
                construct_r2(fr, fs.canonical_projection([0], 2), tol)
                if n == 2
                else construct_r3(fr, tol)
            )
        except ValueError:
            return None
        if built.projection.rank not in valid:
            if (n - built.projection.rank) not in valid:
                return None
            built = _complement_form(built)
        if fs.verify_piecewise(fr, built, tol).passed:
            return built
        return None
    for k in valid:
        for candidate in range(budget):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, k, candidate)))
            P = _random_projection(rng, n, k)
            ps = _disjoint_split_candidate(X, P, tol)
            if ps is not None and fs.verify_piecewise(fr, ps, tol).passed:
                return ps
    return None
