import numpy as np
import pytest
import scipy.sparse as sp

from mmiga.errors import BreakdownError, ConvergenceError, SingularMatrixError
from mmiga.linalg import LinearSolverSettings, banded_solve, cg_solve

from mmiga.splines import basis_matrix, greville_abscissae, make_open_knot_vector


def test_cg_identity_converges_immediately():
    A = sp.identity(5, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    x, it = cg_solve(A, b)
    assert it <= 1
    assert np.allclose(x, b, atol=1e-14)


def test_cg_2x2_hand_elimination():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, _ = cg_solve(A, b, tol=1e-14)
    assert np.allclose(x, [1 / 11, 7 / 11], atol=1e-10)


def _laplacian_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_cg_residual_contract_and_preconditioner_helps():
    rng = np.random.default_rng(0)
    A = _laplacian_1d(200)
    # scale rows/cols to make the diagonal vary so Jacobi actually does work
    d = sp.diags(rng.uniform(0.5, 5.0, 200))
    A = (d @ A @ d).tocsr()
    b = rng.normal(size=200)
    x_plain, it_plain = cg_solve(A, b, tol=1e-10, precond=None)
    x_jac, it_jac = cg_solve(A, b, tol=1e-10, precond=lambda r: r / A.diagonal())
    for x in (x_plain, x_jac):
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert it_jac < it_plain


def test_cg_takes_a_callable_preconditioner():
    A = _laplacian_1d(50)
    b = np.random.default_rng(4).normal(size=50)
    inv = np.linalg.inv(A.toarray())
    x, it = cg_solve(A, b, tol=1e-12, precond=lambda r: inv @ r)
    assert it == 1
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_cg_initial_guess_at_the_solution_takes_no_iteration():
    A = _laplacian_1d(40)
    x_exact = np.random.default_rng(5).normal(size=40)
    b = A @ x_exact
    guess = x_exact.copy()
    x, it = cg_solve(A, b, tol=1e-12, x0=guess)
    assert it == 0
    assert np.array_equal(x, x_exact)
    x[0] += 1.0  # the result is not the caller's guess
    assert np.array_equal(guess, x_exact)


def test_cg_warm_start_meets_the_cold_residual_bound():
    rng = np.random.default_rng(6)
    A = _laplacian_1d(200) + sp.identity(200)  # well conditioned: CG stops well before n
    d = sp.diags(rng.uniform(0.5, 5.0, 200))
    A = (d @ A @ d).tocsr()
    jacobi = lambda r: r / A.diagonal()  # noqa: E731
    b = rng.normal(size=200)
    x_prev, _ = cg_solve(A, b, tol=1e-10, precond=jacobi)
    # the next system of a sequence, started from the last solution
    b_next = b + 1e-3 * rng.normal(size=200)
    x_cold, it_cold = cg_solve(A, b_next, tol=1e-10, precond=jacobi)
    x_warm, it_warm = cg_solve(A, b_next, tol=1e-10, precond=jacobi, x0=x_prev)
    for x in (x_cold, x_warm):
        assert np.linalg.norm(b_next - A @ x) <= 1e-10 * np.linalg.norm(b_next)
    assert 0 < it_warm < it_cold


def test_cg_rejects_a_wrongly_shaped_initial_guess():
    A = _laplacian_1d(10)
    b = np.ones(10)
    for bad in (np.zeros(11), np.zeros((10, 1)), np.zeros(())):
        with pytest.raises(ValueError, match="initial guess"):
            cg_solve(A, b, x0=bad)


def test_cg_error_monotone_in_energy_norm():
    rng = np.random.default_rng(1)
    A = _laplacian_1d(60).toarray()
    A = sp.csr_matrix(A)
    x_exact = rng.normal(size=60)
    b = A @ x_exact
    errs = []
    dense = A.toarray()

    def record(xk):
        e = xk - x_exact
        errs.append(float(e @ (dense @ e)))

    cg_solve(A, b, tol=1e-12, callback=record)
    errs = np.array(errs)
    assert np.all(np.diff(errs) <= 1e-12 * errs[0])


def test_cg_nonconvergence_raises():
    A = _laplacian_1d(100)
    b = np.ones(100)
    with pytest.raises(ConvergenceError):
        cg_solve(A, b, tol=1e-14, maxit=3)


def test_cg_breakdown_on_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    b = np.array([1.0, 1.0])
    with pytest.raises(BreakdownError):
        cg_solve(A, b, precond=None)


def test_cg_determinism():
    rng = np.random.default_rng(2)
    A = _laplacian_1d(80)
    b = rng.normal(size=80)
    x1, it1 = cg_solve(A, b)
    x2, it2 = cg_solve(A, b)
    assert it1 == it2
    assert np.array_equal(x1, x2)


def test_banded_identity():
    rhs = np.array([3.0, 1.0, -2.0])
    assert np.allclose(banded_solve(np.eye(3), rhs), rhs)


def test_banded_greville_collocation_reproduces_quadratic():
    kv = make_open_knot_vector(2, 4, 1)
    g = greville_abscissae(kv)
    B = basis_matrix(kv, g)
    poly = lambda t: 3.0 * t**2 - 2.0 * t + 0.25
    coeffs = banded_solve(B, poly(g))
    probe = np.linspace(0, 1, 37)
    vals = basis_matrix(kv, probe) @ coeffs
    assert np.allclose(vals, poly(probe), atol=1e-11)


def test_banded_random_well_conditioned_residual():
    rng = np.random.default_rng(3)
    n = 40
    B = np.zeros((n, n))
    for d, scale in ((-2, 0.1), (-1, 0.3), (0, 4.0), (1, 0.3), (2, 0.1)):
        vals = scale * rng.uniform(0.5, 1.5, n - abs(d))
        B += np.diag(vals, k=d)
    rhs = rng.normal(size=(n, 3))
    x = banded_solve(B, rhs)
    assert np.linalg.norm(B @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_banded_singular_raises():
    for B in (np.diag([1.0, 0.0, 2.0]), np.zeros((3, 3))):
        with pytest.raises(SingularMatrixError):
            banded_solve(B, np.ones(3))


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
                                    {"tol": float("inf")}, {"maxit": 0}, {"maxit": -1}])
def test_solver_settings_reject_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        LinearSolverSettings(**kwargs)
