"""Error measurement against exact solutions and file export.

Error quadrature runs one Gauss order higher than assembly so the measured
norms are decoupled from the solve quadrature. The max-norm is a lattice
max over a fixed deterministic 5x5 sample per element (corners included,
each shared element edge sampled once), not a true supremum. The basis
tables of the three point sets the error norms evaluate on (the error
Gauss grid, the lattice and the breakpoints) are memo entries of the knot
vectors, so every geometry on the same knots shares them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .assembly import FieldCoefficients, _blocks, _physical_gradient, eval_field_grid
from .geometry import (
    NurbsGeometry,
    _blocked,
    _jacobian_det,
    _rational_rows,
    eval_geometry_grid,
    fixed_basis,
    grid_basis,
)
# _element_lattice stays importable here: acceptance criterion 7 reads it
from .splines import _element_lattice, lattice_points  # noqa: F401

__all__ = [
    "ExactSolution",
    "ErrorReport",
    "LevelOrders",
    "error_norms",
    "convergence_orders",
    "export_vtk",
    "export_trace",
    "read_vtk_points",
]

@dataclass(frozen=True)
class ExactSolution:
    """Reference solution: value and gradient components, vectorized."""

    u: callable
    du_dx: callable
    du_dy: callable


@dataclass(frozen=True)
class ErrorReport:
    """Norms of u - u_h on one mesh plus bookkeeping for convergence tables."""

    L2: float
    H1_semi: float
    L_inf: float
    per_element_L2: np.ndarray  # (nel_u, nel_v)
    dofs: int
    h: float  # largest element diameter (physical)


@dataclass(frozen=True)
class LevelOrders:
    """Observed orders between two consecutive refinement levels."""

    dofs: int
    L2: float | None
    H1: float | None
    Linf: float | None


def _error_cells(g: NurbsGeometry, u: FieldCoefficients, exact: ExactSolution):
    """The per-element integrals of (u - u_h)^2 and |grad(u - u_h)|^2 on
    the error Gauss grid, each (nel_u, nel_v).

    The geometry and the field are contracted with the grid's v tables
    once, on the whole grid; the rest, the u products, the quotient rule,
    det J and the gradient (:func:`~mmiga.assembly._physical_gradient`),
    read from the sums with no stacked Jacobian or gradient, the exact
    solution and the errors, runs one group of element rows at a time
    (:func:`~mmiga.assembly._blocks`), in whole blocks of the u tables when
    the grid is contracted by blocks (:func:`~mmiga.geometry._spline_rows`),
    else from the whole-grid u products. A block's u products have the
    bits they have among all blocks, the other steps are elementwise, and
    each element's sum lies in one group, so the cells have the bits of the
    whole grid at once."""
    quad = grid_basis(g.kv_u, g.kv_v, g.kv_u.error_gauss.pts, g.kv_v.error_gauss.pts, 1)
    geo_rows = _rational_rows(quad, g.weights, g.control_points, 1)
    field_rows = _rational_rows(quad, g.weights, u.grid[:, :, None], 1)
    nel_u = len(g.kv_u.nonzero_spans)
    nel_v = len(g.kv_v.nonzero_spans)
    qu, qv = len(quad.u.pts) // nel_u, len(quad.v.pts) // nel_v
    l2_cells, h1_cells = np.empty((nel_u, nel_v)), np.empty((nel_u, nel_v))
    # element rows go in whole blocks of the u tables, when the grid has them
    step = quad.u.blocks[0].shape[1] // qu if _blocked(quad) else 1
    # a block's largest temporaries are the map's first derivatives, 4
    # values a point
    for group in _blocks(-(-nel_u // step), step * qu * len(quad.v.pts) * 4 * 8):
        eu = slice(group.start * step, min(group.stop * step, nel_u))
        rows = slice(eu.start * qu, eu.stop * qu)
        geo, field = geo_rows(rows), field_rows(rows)
        det = _jacobian_det(geo[1, 0], geo[0, 1])
        (gx, gy), _ = _physical_gradient(field, geo[1, 0], geo[0, 1], det)
        X, Y = geo[0, 0][..., 0], geo[0, 0][..., 1]
        w2 = np.multiply.outer(quad.u.wts[rows], quad.v.wts) * det

        e_val = field[0, 0][..., 0] - exact.u(X, Y)
        e_gx = gx - exact.du_dx(X, Y)
        e_gy = gy - exact.du_dy(X, Y)
        cells = (-1, qu, nel_v, qv)
        l2_cells[eu] = (e_val * e_val * w2).reshape(cells).sum(axis=(1, 3))
        h1_cells[eu] = ((e_gx * e_gx + e_gy * e_gy) * w2).reshape(cells).sum(axis=(1, 3))
    return l2_cells, h1_cells


def error_norms(g: NurbsGeometry, u: FieldCoefficients, exact: ExactSolution) -> ErrorReport:
    """L2 / H1-seminorm / lattice-max errors plus the per-element L2 map.

    The norms sum the per-element integrals (:func:`_error_cells`) whole;
    the grid contractions they hold are freed before the lattice max."""
    l2_cells, h1_cells = _error_cells(g, u, exact)
    per_element_L2 = np.sqrt(l2_cells)

    # deterministic per-element lattice max, corners included
    lat = fixed_basis(g, "lattice")
    lgeo = eval_geometry_grid(g, lat.u.pts, lat.v.pts, 0)
    lvals = eval_field_grid(g, u, lat.u.pts, lat.v.pts).values
    linf = float(np.max(np.abs(lvals - exact.u(lgeo.points[..., 0], lgeo.points[..., 1]))))

    # element size: largest corner-to-corner distance over all elements
    brk = fixed_basis(g, "corners")
    corners = eval_geometry_grid(g, brk.u.pts, brk.v.pts, 0).points
    diag = corners[1:, 1:] - corners[:-1, :-1]
    anti = corners[1:, :-1] - corners[:-1, 1:]
    h = float(
        max(
            np.hypot(diag[..., 0], diag[..., 1]).max(),
            np.hypot(anti[..., 0], anti[..., 1]).max(),
        )
    )

    return ErrorReport(
        L2=float(np.sqrt(l2_cells.sum())),
        H1_semi=float(np.sqrt(h1_cells.sum())),
        L_inf=linf,
        per_element_L2=per_element_L2,
        dofs=g.ndof,
        h=h,
    )


def convergence_orders(reports) -> list[LevelOrders]:
    """Observed orders log(e_prev / e) / log(h_prev / h) per refinement level.

    The first level carries no order; a vanishing error makes the order for
    that norm undefined (None).
    """
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two reports")
    out = [LevelOrders(reports[0].dofs, None, None, None)]
    for prev, cur in zip(reports, reports[1:]):
        denom = np.log(prev.h / cur.h)

        def order(e_prev, e_cur):
            if e_prev <= 0.0 or e_cur <= 0.0:
                return None
            return float(np.log(e_prev / e_cur) / denom)

        out.append(
            LevelOrders(
                cur.dofs,
                order(prev.L2, cur.L2),
                order(prev.H1_semi, cur.H1_semi),
                order(prev.L_inf, cur.L_inf),
            )
        )
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_vtk(g: NurbsGeometry, fields: dict, samples_per_element: int, path):
    """Legacy ASCII VTK unstructured grid of bilinear sub-cells.

    Each element is sampled on a conforming uniform sub-grid, giving
    (elements_per_direction * (samples-1) + 1)^2 points and
    elements * (samples-1)^2 quad cells. ``fields`` maps names to
    FieldCoefficients, written as point data.
    """
    s = int(samples_per_element)
    if s < 2:
        raise ValueError("samples_per_element must be >= 2")

    lu, lv = lattice_points(g.kv_u, s), lattice_points(g.kv_v, s)
    nu, nv = len(lu), len(lv)
    pts = eval_geometry_grid(g, lu, lv, nders=0).points
    data = {name: eval_field_grid(g, f, lu, lv, nders=0).values for name, f in fields.items()}

    cells = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            a = iu * nv + iv
            cells.append((a, a + nv, a + nv + 1, a + 1))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mmiga export\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nu * nv} double\n")
        for i in range(nu):
            for j in range(nv):
                fh.write(f"{_fmt(pts[i, j, 0])} {_fmt(pts[i, j, 1])} 0\n")
        fh.write(f"CELLS {len(cells)} {5 * len(cells)}\n")
        for cell in cells:
            fh.write("4 " + " ".join(str(k) for k in cell) + "\n")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        for _ in cells:
            fh.write("9\n")
        if data:
            fh.write(f"POINT_DATA {nu * nv}\n")
            for name, vals in data.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for i in range(nu):
                    for j in range(nv):
                        fh.write(f"{_fmt(vals[i, j])}\n")


def read_vtk_points(path):
    """Parse points and scalar point data back from :func:`export_vtk` output."""
    points = []
    data = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        tok = lines[i].split()
        if tok[:1] == ["POINTS"]:
            n = int(tok[1])
            for k in range(n):
                x, y, z = map(float, lines[i + 1 + k].split())
                points.append((x, y, z))
            i += n
        elif tok[:1] == ["SCALARS"]:
            name = tok[1]
            n = len(points)
            vals = [float(lines[i + 2 + k]) for k in range(n)]
            data[name] = np.array(vals)
            i += n + 1
        i += 1
    return np.array(points), data


TRACE_HEADER = ["iter", "xi_inf_err", "tau_used", "min_jacobian", "L2", "H1", "Linf", "cpu_seconds"]


def export_trace(state, path):
    """Iteration trace as CSV with one row per outer iteration."""
    if not state.trace:
        raise ValueError("empty trace")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for entry in state.trace:
            writer.writerow(
                [entry.iteration]
                + [
                    _fmt(v)
                    for v in (
                        entry.xi_inf_err,
                        entry.tau_used,
                        entry.min_jacobian,
                        entry.L2,
                        entry.H1,
                        entry.Linf,
                        entry.cpu_seconds,
                    )
                ]
            )
