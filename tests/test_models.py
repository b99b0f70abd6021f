import numpy as np
import pytest

from sada import (
    DimensionMismatch,
    NonConvergence,
    ScoreModel,
    SingularJacobian,
    mean_model,
    ols_model,
    solve_estimating_equation,
    solve_score_root,
)
from test_estimators import least_squares


def test_mean_score_values():
    m = mean_model()
    assert m.p == 1
    assert np.allclose(m.score(None, 0.5, np.array([0.5])), [0.0])
    assert np.allclose(m.score(None, 2.0, np.array([0.5])), [1.5])
    assert np.allclose(m.jacobian(None, 2.0, np.array([0.5])), [[-1.0]])
    assert np.allclose(m.jacobian(None, -3.0, np.array([7.0])), [[-1.0]])


def test_ols_score_values():
    m = ols_model(2)
    x = np.array([1.0, 0.0])
    assert np.allclose(m.score(x, 1.0, np.array([0.0, 0.0])), [1.0, 0.0])
    # exact fit -> zero score
    theta = np.array([0.5, 2.0])
    x2 = np.array([1.0, 3.0])
    assert np.allclose(m.score(x2, float(x2 @ theta), theta), [0.0, 0.0])
    assert np.allclose(m.jacobian(np.array([1.0, 2.0]), 0.0, theta), [[-1.0, -2.0], [-2.0, -4.0]])


def test_batched_evaluation_matches_per_row():
    rng = np.random.default_rng(0)
    m = ols_model(3)
    X = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    theta = rng.standard_normal(3)
    S = m.score(X, y, theta)
    J = m.jacobian(X, y, theta)
    assert S.shape == (6, 3) and J.shape == (3, 3)
    for i in range(6):
        assert np.allclose(S[i], m.score(X[i], y[i], theta))
    assert np.allclose(J, np.mean([m.jacobian(X[i], y[i], theta) for i in range(6)], axis=0))


def test_jacobians_match_finite_differences():
    # rel. tol 1e-5 at random evaluation points for both built-in models
    rng = np.random.default_rng(1)
    eps = 1e-6
    for model, d in ((mean_model(), 1), (ols_model(3), 3)):
        for _ in range(10):
            x = rng.standard_normal(d)
            y = float(rng.standard_normal())
            theta = rng.standard_normal(model.p)
            J = model.jacobian(x, y, theta)
            fd = np.empty((model.p, model.p))
            for j in range(model.p):
                step = np.zeros(model.p)
                step[j] = eps
                fd[:, j] = (model.score(x, y, theta + step) - model.score(x, y, theta - step)) / (2 * eps)
            scale = max(1.0, float(np.abs(J).max()))
            assert np.allclose(J, fd, atol=1e-5 * scale)


def test_batch_jacobian_is_finite_difference_of_mean_score():
    rng = np.random.default_rng(4)
    eps = 1e-6
    for model, d in ((mean_model(), 1), (ols_model(3), 3)):
        X = rng.standard_normal((8, d))
        y = rng.standard_normal(8)
        theta = rng.standard_normal(model.p)
        J = model.jacobian(X, y, theta)
        assert J.shape == (model.p, model.p)
        fd = np.empty((model.p, model.p))
        for j in range(model.p):
            step = np.zeros(model.p)
            step[j] = eps
            fd[:, j] = (
                model.score(X, y, theta + step).mean(0) - model.score(X, y, theta - step).mean(0)
            ) / (2 * eps)
        assert np.allclose(J, fd, atol=1e-5 * max(1.0, float(np.abs(J).max())))


def test_per_row_jacobian_model_is_rejected():
    # a Jacobian per row, (m, p, p), instead of their (p, p) mean
    base = ols_model(2)
    per_row = ScoreModel(
        p=2,
        score=base.score,
        jacobian=lambda x, y, theta: -x[:, :, None] * x[:, None, :],
    )
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 2))
    with pytest.raises(ValueError, match=r"\(2, 2\).*mean over the rows"):
        solve_score_root(per_row, X, rng.standard_normal(7))


def test_solver_mean_labels_one_step():
    m = mean_model()
    y = np.array([1.0, 2.0, 3.0])
    theta, iters = solve_score_root(m, np.ones((3, 1)), y)
    assert abs(theta[0] - 2.0) < 1e-14
    assert iters == 1


def test_solver_ols_matches_normal_equations():
    # closed-form least-squares oracle: (X'X)^{-1} X'y
    rng = np.random.default_rng(2)
    X = np.column_stack([np.ones(3), rng.standard_normal(3)])
    y = rng.standard_normal(3)
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    theta, _ = solve_score_root(ols_model(2), X, y)
    assert np.allclose(theta, expected, atol=1e-12)


@pytest.mark.parametrize("model, width", [
    (ols_model(2), 3),
    (ols_model(4), 3),
    (least_squares(lambda x: np.column_stack([np.ones(len(x)), x]), 3), 4),
], ids=["2", "4", "custom_design"])
def test_closed_form_solve_rejects_a_design_of_another_width(model, width):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 3))
    with pytest.raises(DimensionMismatch, match=f"^the design has {width} columns but the model has p={model.p}$"):
        solve_score_root(model, X, rng.standard_normal(50))


def test_solver_zero_jacobian_raises():
    with pytest.raises(SingularJacobian, match=r"^Jacobian is singular at iteration 0 \(rcond < 1e-12\)$"):
        solve_estimating_equation(
            lambda t: np.array([1.0]), lambda t: np.array([[0.0]]), np.array([0.0])
        )


def test_a_closed_form_solve_reports_no_iteration():
    # collinear features: the closed-form solve has no iteration to name
    X = np.column_stack([np.ones(4), np.ones(4)])
    with pytest.raises(SingularJacobian, match=r"^Jacobian is singular \(rcond < 1e-12\)$"):
        solve_score_root(ols_model(2), X, np.arange(4.0))


def test_solver_reports_nonconvergence():
    # residual bounded away from zero with a unit Jacobian cannot converge
    with pytest.raises(NonConvergence, match="step halving stalled"):
        solve_estimating_equation(
            lambda t: np.array([1.0 + t[0] ** 2]),
            lambda t: np.array([[1.0]]),
            np.array([0.0]),
        )


def test_affine_residual_converges_in_one_step():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        theta, iters = solve_estimating_equation(
            lambda t, A=A, b=b: A @ t + b, lambda t, A=A: A, rng.standard_normal(3)
        )
        assert iters <= 1 + 1  # one Newton step (plus the initial check)
        assert np.linalg.norm(A @ theta + b) <= 1e-10


def test_solver_nonlinear_residual():
    # exp-root: residual(t) = exp(t) - 2, root log 2
    theta, _ = solve_estimating_equation(
        lambda t: np.array([np.exp(t[0]) - 2.0]),
        lambda t: np.array([[np.exp(t[0])]]),
        np.array([0.0]),
    )
    assert abs(theta[0] - np.log(2.0)) < 1e-10
