import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
from helpers import r3_fixture, random_rotation


def test_intertwiner_identity_case_is_exact():
    P = fs.random_projection(4, 2, seed=1)
    U = fs.intertwiner(P, P)
    assert np.array_equal(U, np.eye(4))


def test_intertwiner_swap_example():
    P = fs.canonical_projection([0], 2)
    Q = fs.canonical_projection([1], 2)
    U = fs.intertwiner(P, Q)
    assert np.array_equal(U, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(U @ P.matrix, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(U @ P.matrix, Q.matrix @ U)


def test_intertwiner_rank_mismatch():
    with pytest.raises(ValueError):
        fs.intertwiner(fs.canonical_projection([0], 3), fs.canonical_projection([0, 1], 3))
    with pytest.raises(ValueError, match=r"projections act on R\^2 and R\^3"):
        fs.intertwiner(fs.canonical_projection([0], 2), fs.canonical_projection([0], 3))


@given(st.integers(0, 10_000))
def test_intertwiner_defining_residuals(seed):
    P = fs.random_projection(5, 2, seed=seed)
    Q = fs.random_projection(5, 2, seed=seed + 1)
    U = fs.intertwiner(P, Q)
    assert np.linalg.norm(U.T @ U - np.eye(5), "fro") <= 1e-10
    assert np.linalg.norm(U @ P.matrix - Q.matrix @ U, "fro") <= 1e-10


def test_transport_identity():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    moved_frame, moved = fs.transport_scaling(frame, ps, np.eye(3))
    assert np.array_equal(moved_frame.vectors, frame.vectors)
    assert np.array_equal(moved.projection.matrix, ps.projection.matrix)


def test_transport_rejects_non_unitary():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    with pytest.raises(ValueError):
        fs.transport_scaling(frame, ps, np.diag([1.0, 2.0, 1.0]))


@given(st.integers(0, 10_000))
def test_transport_preserves_residuals(seed):
    rng = np.random.default_rng(seed)
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    base = fs.verify_piecewise(frame, ps)
    U = random_rotation(rng, 3)
    moved_frame, moved = fs.transport_scaling(frame, ps, U)
    rep = fs.verify_piecewise(moved_frame, moved)
    assert rep.passed
    assert abs(rep.direct_residual - base.direct_residual) <= 1e-10
    assert abs(rep.p_side.residual - base.p_side.residual) <= 1e-10
    assert abs(rep.q_side.residual - base.q_side.residual) <= 1e-10
    assert abs(rep.cross_norm - base.cross_norm) <= 1e-10
    # the conjugated projection is a valid projection of the same rank
    assert fs.validate_projection(moved.projection.matrix, tol=1e-10).passed
    assert moved.projection.rank == ps.projection.rank


def test_transport_by_intertwiner_reaches_canonical_projection():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    target = fs.canonical_projection(range(ps.projection.rank), 3)
    U = fs.intertwiner(ps.projection, target)
    moved_frame, moved = fs.transport_scaling(frame, ps, U)
    assert np.linalg.norm(moved.projection.matrix - target.matrix, "fro") <= 1e-10
    assert fs.verify_piecewise(moved_frame, moved).passed


def test_to_canonical_snaps_exactly():
    rng = np.random.default_rng(3)
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    moved_frame, moved = fs.transport_scaling(frame, ps, random_rotation(rng, 3))
    canon_frame, canon = fs.to_canonical(moved_frame, moved)
    assert np.array_equal(canon.projection.matrix, np.diag([1.0, 0.0, 0.0]))
    rep = fs.verify_piecewise(canon_frame, canon)
    assert rep.passed
    # constants ride along unchanged
    assert np.array_equal(canon.a, ps.a) and np.array_equal(canon.b, ps.b)


def test_to_canonical_on_already_canonical_scaling():
    frame = fs.Frame(np.eye(3))
    ones = np.ones(3)
    ps = fs.PiecewiseScaling(fs.canonical_projection([0], 3), ones, ones)
    moved_frame, moved = fs.to_canonical(frame, ps)
    assert np.array_equal(moved.projection.matrix, ps.projection.matrix)
    assert np.array_equal(moved_frame.vectors, frame.vectors)
