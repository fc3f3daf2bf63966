"""Error norms and Jacobians computed apart from mmiga.

The benchmark checks the library's outputs with this module. It reads only
the data a solve produced (knot vectors, weights, control net and solution
coefficients) and evaluates the rational tensor-product map and field with
scipy's B-splines, on its own Gauss rule of degree + 3 points per element
(the library's error norms use degree + 2), so a fault in the library's
evaluation or quadrature cannot hide in the check.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline


def _gauss(knots: np.ndarray, q: int):
    """Gauss points and weights on every nonzero knot span, span by span."""
    br = np.unique(knots)
    x, w = np.polynomial.legendre.leggauss(q)
    a, b = br[:-1, None], br[1:, None]
    return ((a + b) / 2 + (b - a) / 2 * x).ravel(), ((b - a) / 2 * w).ravel()


def _tables(knots: np.ndarray, degree: int, pts: np.ndarray):
    """Values and first derivatives of every B-spline at pts, shape (len(pts), n)."""
    n = len(knots) - degree - 1
    spl = BSpline(knots, np.eye(n), degree)
    return spl(pts), spl(pts, nu=1)


def _rational(Bu, Bv, w, c):
    """Value and parametric derivatives of sum R_ij c_ij on the grid."""
    (Bu0, Bu1), (Bv0, Bv1) = Bu, Bv
    W, Wu, Wv = Bu0 @ w @ Bv0.T, Bu1 @ w @ Bv0.T, Bu0 @ w @ Bv1.T
    wc = w * c
    val = (Bu0 @ wc @ Bv0.T) / W
    du = (Bu1 @ wc @ Bv0.T - val * Wu) / W
    dv = (Bu0 @ wc @ Bv1.T - val * Wv) / W
    return val, du, dv


def evaluate(knots_u, knots_v, degree_u, degree_v, weights, control_points, coeffs=None):
    """Map, Jacobian determinant, quadrature weights and (if ``coeffs`` is
    given) field value and physical gradient on the reference Gauss grid."""
    pu, wu = _gauss(knots_u, degree_u + 3)
    pv, wv = _gauss(knots_v, degree_v + 3)
    Bu, Bv = _tables(knots_u, degree_u, pu), _tables(knots_v, degree_v, pv)
    x, x_u, x_v = _rational(Bu, Bv, weights, control_points[..., 0])
    y, y_u, y_v = _rational(Bu, Bv, weights, control_points[..., 1])
    det = x_u * y_v - x_v * y_u
    out = {"x": x, "y": y, "det": det, "wq": np.multiply.outer(wu, wv) * det}
    if coeffs is not None:
        val, d_u, d_v = _rational(Bu, Bv, weights, coeffs)
        out["u"] = val
        out["u_x"] = (d_u * y_v - d_v * y_u) / det
        out["u_y"] = (d_v * x_u - d_u * x_v) / det
    return out


def error_norms(knots_u, knots_v, degree_u, degree_v, weights, control_points, coeffs, exact):
    """(L2, H1 seminorm) of u_h - u; ``exact`` is (u, du_dx, du_dy)."""
    ev = evaluate(knots_u, knots_v, degree_u, degree_v, weights, control_points, coeffs)
    u, ux, uy = exact
    x, y = ev["x"], ev["y"]
    e0 = ev["u"] - u(x, y)
    e1 = (ev["u_x"] - ux(x, y)) ** 2 + (ev["u_y"] - uy(x, y)) ** 2
    return float(np.sqrt(np.sum(ev["wq"] * e0 * e0))), float(np.sqrt(np.sum(ev["wq"] * e1)))


def min_det(knots_u, knots_v, degree_u, degree_v, weights, control_points) -> float:
    """Smallest Jacobian determinant of the map on the reference Gauss grid."""
    ev = evaluate(knots_u, knots_v, degree_u, degree_v, weights, control_points)
    return float(ev["det"].min())
