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


def scalable_rows(rng: np.random.Generator, n: int, bases: int) -> np.ndarray:
    """Weighted union of ``bases`` rotated orthonormal bases, rows rescaled at random.

    The unscaled rows sqrt(w_j) U_j e_i form a Parseval frame, so the
    rescaled family is standard scalable.
    """
    weights = rng.uniform(0.5, 1.5, bases)
    weights /= weights.sum()
    X = np.vstack([np.sqrt(w) * random_onb_rows(rng, n) for w in weights])
    return X * rng.uniform(0.5, 2.0, X.shape[0])[:, None]


def cone_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Unit rows with cos^2 to a common centre above 1/n, so no scaling exists."""
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    W = rng.standard_normal((m, n))
    W -= np.outer(W @ u, u)
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    cos2 = rng.uniform(1.0 / n + 0.05, 1.0 / n + 0.5, m)
    X = np.sqrt(cos2)[:, None] * u + np.sqrt(1.0 - cos2)[:, None] * W
    return X / np.linalg.norm(X, axis=1, keepdims=True)


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


def ill_conditioned_frame() -> fs.Frame:
    """Four rows in R^3 with singular values 1, 1e-2 and 2e-5 (default_rng(1))."""
    rng = np.random.default_rng(1)
    U = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return fs.Frame((U * [1.0, 1e-2, 2e-5]) @ V.T)


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


def magnitude_gate_frames(rng: np.random.Generator) -> list[np.ndarray]:
    """Unit, clustered, scalable, cone and open-quadrant frames, then the extreme fixtures.

    The extreme fixtures are I_2 * 1e-170, I_3 * 1e200, and I_3 plus the
    row (1, 1, 1) times 1e-170 and times 1e200: their squares leave the
    range of doubles.
    """
    frames = [open_quadrant_frame(rng, 4).vectors, open_quadrant_frame(rng, 5).vectors]
    for n in (3, 4, 5):
        frames += [
            random_unit_frame(rng, n, 2 * n).vectors,
            clustered_unit_frame(rng, n, 2 * n, 0.05).vectors,
            scalable_rows(rng, n, 2),
            cone_rows(rng, 2 * n, n),
        ]
    four = np.vstack([np.eye(3), np.ones(3)])
    return frames + [1e-170 * np.eye(2), 1e200 * np.eye(3), 1e-170 * four, 1e200 * four]


def row_transform(
    rng: np.random.Generator, X: np.ndarray, permute: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, order, factors): Y = factors * X[order], with factors sign * 2^e, e uniform in [-64, 64].

    None of these changes whether, or how, a frame scales: the constants
    of row i of Y are those of row order[i] of X divided by |factors[i]|.
    ``order`` is the identity unless ``permute``.
    """
    m = X.shape[0]
    order = rng.permutation(m) if permute else np.arange(m)
    factors = rng.choice([-1.0, 1.0], m) * np.ldexp(1.0, rng.integers(-64, 65, m))
    return factors[:, None] * X[order], order, factors


def reference_search_piecewise(frame, ranks=None, budget: int = 100, seed: int = 0, tol: float = fs.DEFAULT_TOL):
    """Sequential search_piecewise: every candidate through the solver, no screening.

    A copy of the search before candidates were screened in batches; the
    differential tests compare the library's search against it.  Each
    rank draws its candidates one by one from one generator
    default_rng((seed, k)), so candidate c comes from block c of that
    stream.
    """
    from framescale.piecewise import _complement_form, construct_r2, construct_r3

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
        rng = np.random.default_rng((seed, k))
        for _ in range(budget):
            ps = reference_disjoint_split_candidate(X, rng.standard_normal((n, k)), tol)
            if ps is not None and fs.verify_piecewise(fr, ps, tol).passed:
                return ps
    return None


def reference_disjoint_split_candidate(X: np.ndarray, G: np.ndarray, tol: float):
    """Disjoint-support split of the candidate of one Gaussian block G (n, k), range side first.

    A copy of the library's split before it solved the higher-rank side
    first and pre-checked rank-2 overlap resolutions; the search
    differential tests compare against it.  The candidate projects onto
    the first k columns of the orthogonal factor Q of the complete QR of
    G, and its sides are the identity problems in the columns of X Q,
    formed as one product as in the library.  Like the library, it
    solves the side coordinates as they are, without normalising rows.
    """
    from framescale.projections import _leading_projection
    from framescale.scaling import _standard_verdict

    k = G.shape[1]
    Q = np.linalg.qr(G, mode="complete")[0]
    W = X @ Q
    Y, Z = W[:, :k], W[:, k:]
    vp = _standard_verdict(Y, tol)
    if not vp.feasible:
        return None
    vq = _standard_verdict(Z, tol)
    if not vq.feasible:
        return None
    a = np.array(vp.scaling.constants)
    b = np.array(vq.scaling.constants)
    overlap = (a > 0.0) & (b > 0.0)
    if overlap.any():
        resolved = reference_restricted_constants(Y, (a > 0.0) & ~overlap, tol)
        if resolved is not None:
            a = resolved
        else:
            resolved = reference_restricted_constants(Z, (b > 0.0) & ~overlap, tol)
            if resolved is None:
                return None
            b = resolved
    return fs.PiecewiseScaling(_leading_projection(Q, k), a, b)


def reference_restricted_constants(V: np.ndarray, keep: np.ndarray, tol: float):
    """Solver-only _restricted_constants: the kept coordinate rows always go through the solver, not normalised."""
    from framescale.scaling import _standard_verdict

    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return None
    verdict = _standard_verdict(V[idx], tol)
    if not verdict.feasible:
        return None
    out = np.zeros(keep.shape[0])
    out[idx] = verdict.scaling.constants
    return out


def reference_subspace_margin(units: np.ndarray) -> np.ndarray:
    """Eigenvector distance bound from I to the cone of stacked unit families in R^d.

    The search screen's bound for sides of dimension d >= 3 before the
    Farkas bound replaced it; the domination test compares against it.
    ``units`` has shape (C, m, d), d >= 2, with unit rows u_i.  For the
    top-j eigenvectors Pi_j of S = sum_i u_i u_i^T and
    mu_j = min_i ||Pi_j^T u_i||^2 > j / d, the matrix
    R = I - Pi_j Pi_j^T / mu_j has u_i^T R u_i <= 0 and
    tr R = d - j / mu_j > 0, so it separates I from the cone by
    tr R / ||R||_F.  Returns the best such bound over j = 1..d-1, or 0
    when no j separates.
    """
    d = units.shape[2]
    S = np.einsum("cmi,cmj->cij", units, units)
    top = np.linalg.eigh(S)[1][:, :, ::-1]
    # ||Pi_j^T u_i||^2 for j = 1..d-1
    captured = np.cumsum(np.einsum("cmi,cij->cmj", units, top) ** 2, axis=2)[:, :, :-1]
    mu = captured.min(axis=1)
    j = np.arange(1, d)
    separates = mu > j / d
    mu = np.where(separates, mu, 1.0)
    bound = (d - j / mu) / np.sqrt((d - j) + j * (1.0 - 1.0 / mu) ** 2)
    return np.where(separates, bound, 0.0).max(axis=1)


def reference_farkas_margin(units: np.ndarray) -> np.ndarray:
    """_farkas_bound of stacked unit families after a fixed 150 FISTA steps each.

    The search screen's Farkas margin before a family could leave its
    batch at a checkpoint, on the Gram matrix H_ij = (u_i^T u_j)^2 in
    place of the screen's vectorized system; the early-exit test
    compares against it.  ``units`` has shape (C, m, d) with unit rows.
    """
    from framescale.piecewise import _farkas_bound, _fista_momentum

    d = units.shape[2]
    H = (units @ units.transpose(0, 2, 1)) ** 2
    step = 1.0 / H.sum(axis=2).max(axis=1)[:, None, None]
    descent = np.eye(units.shape[1]) - step * H
    w = y = np.zeros((*units.shape[:2], 1))
    for beta in _fista_momentum(150):
        w_next = np.maximum(descent @ y + step, 0.0)
        y = w_next + beta * (w_next - w)
        w = w_next
    return _farkas_bound(units, np.eye(d) - units.transpose(0, 2, 1) @ (w * units))


def reference_max_pair_distance(X: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest pairwise distance and its row-major first argmax, by full broadcast.

    The (m, m, n) difference formula closeness_obstruction used before
    its blocked kernel; the differential tests require equal results.
    """
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    far = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return float(dist.max()), (int(far[0]), int(far[1]))


def reference_nnls(A, b, max_iter: int | None = None):
    """Lawson-Hanson NNLS with a fresh ``lstsq`` of A_P on every passive-set step.

    A copy of framescale.nnls before its passive sets were solved from
    the Gram system; the differential tests compare the library against it.
    """
    from framescale.nnls import NNLSResult

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or b.shape[0] != A.shape[0]:
        raise ValueError(f"incompatible shapes A={A.shape}, b={b.shape}")
    nrow, ncol = A.shape
    if max_iter is None:
        max_iter = 50 * ncol
    x = np.zeros(ncol)
    passive = np.zeros(ncol, dtype=bool)
    gtol = 1e-12 * max(1.0, float(np.abs(A.T @ b).max(initial=0.0)))
    eps = float(np.finfo(float).eps)
    objective = float(b @ b)
    converged = False
    iters = 0
    while True:
        grad = A.T @ (b - A @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if not np.isfinite(grad[j]) or grad[j] <= gtol:
            converged = True
            break
        passive[j] = True
        while iters < max_iter:
            iters += 1
            z = np.zeros(ncol)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if z[passive].size == 0 or z[passive].min() > 0.0:
                x = z
                break
            shrink = passive & (z <= 0.0)
            gap = x[shrink] - z[shrink]
            safe = gap > 0.0
            alpha = float((x[shrink][safe] / gap[safe]).min()) if safe.any() else 0.0
            x = x + alpha * (z - x)
            boundary = 10.0 * max(nrow, ncol) * eps * max(1.0, float(np.abs(x).max(initial=0.0)))
            passive &= x > boundary
            x[~passive] = 0.0
        if iters >= max_iter:
            break
        r = A @ x - b
        new_objective = float(r @ r)
        if new_objective > objective * (1.0 - 1e-13):
            converged = True
            break
        objective = new_objective
    residual = float(np.linalg.norm(A @ x - b))
    return NNLSResult(x=x, residual=residual, converged=converged, iterations=iters)


def reference_open_quadrant_certificate(vectors) -> bool:
    """open_quadrant_certificate by explicit sign flips and a try of all four quadrants.

    The library's test before it became one sign-product comparison; the
    differential test requires equal results.
    """
    W = np.array(vectors, dtype=float)
    for i in range(W.shape[0]):
        nz = np.nonzero(W[i])[0]
        if W[i, nz[0]] < 0.0:
            W[i] = -W[i]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            if np.all(s1 * W[:, 0] > 0.0) and np.all(s2 * W[:, 1] > 0.0):
                return True
    return False
