import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmiga import assembly
from mmiga.assembly import (
    FieldCoefficients,
    apply_dirichlet,
    assemble_load,
    assemble_weighted_stiffness,
    boundary_values,
    discretization,
    dof_map,
    eval_field,
    eval_field_grid,
    fast_diagonalization,
    gauss_rule,
    solve_dirichlet,
    solve_poisson,
)
from mmiga.errors import AssemblyError, BreakdownError
from mmiga.geometry import (
    NurbsGeometry,
    Rectangle,
    build_identity_geometry,
    eval_geometry_grid,
    fixed_basis,
    map_point,
    refit_from_node_targets,
    mesh_nodes,
    rational_grid_sums,
)
from mmiga.linalg import LinearSolverSettings, cg_solve
from mmiga.splines import (
    KnotVector,
    TensorWeights,
    element_quadrature_1d,
    greville_abscissae,
    make_open_knot_vector,
)

from mmiga.postproc import ExactSolution, error_norms
from oracles import (
    error_norms_whole_grid,
    grad_fd,
    hess_fd,
    shared_element_pattern,
    stiffness_whole_grid,
)


def _identity(p=2, m=2, rect=Rectangle(0, 1, 0, 1), mult=1):
    kv = make_open_knot_vector(p, m, mult)
    return build_identity_geometry(rect, kv, kv)


def _perturbed(p=3, m=3, scale=0.03, seed=0):
    g = _identity(p, m)
    rng = np.random.default_rng(seed)
    cp = g.control_points.copy()
    cp[1:-1, 1:-1] += scale * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    return NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)


# ---------------------------------------------------------------- quadrature

def test_gauss_rule_midpoint():
    r = gauss_rule(1)
    assert np.allclose(r.points, [0.5]) and np.allclose(r.weights, [1.0])


def test_gauss_rule_two_points():
    r = gauss_rule(2)
    expected = [0.5 - 1 / (2 * np.sqrt(3)), 0.5 + 1 / (2 * np.sqrt(3))]
    assert np.allclose(sorted(r.points), expected, atol=1e-15)
    assert np.allclose(r.weights, [0.5, 0.5])
    # exactness on t^3 confirms these are the Legendre roots
    assert r.weights @ r.points**3 == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("q", range(1, 17))
def test_gauss_rule_monomial_exactness(q):
    r = gauss_rule(q)
    for d in range(2 * q):
        assert r.weights @ r.points**d == pytest.approx(1.0 / (d + 1), abs=1e-13)


def test_gauss_rule_rejects_out_of_range():
    for q in (0, 17):
        with pytest.raises(ValueError):
            gauss_rule(q)


# ------------------------------------------------------------------- dof map

def test_dof_map_partitions_ring_and_interior():
    dm = dof_map(4, 5)
    assert len(dm.boundary) + len(dm.interior) == 20
    assert len(dm.interior) == 2 * 3
    grid = np.zeros((4, 5), dtype=int).ravel()
    grid[dm.boundary] = 1
    grid = grid.reshape(4, 5)
    assert np.all(grid[0, :] == 1) and np.all(grid[:, -1] == 1)
    assert np.all(grid[1:-1, 1:-1] == 0)


# ----------------------------------------------------------------- stiffness

def test_bilinear_laplacian_interior_diagonal():
    # p=1, 2x2 elements on the unit square: the single interior basis
    # function has int |grad phi|^2 = 8/3 (hand integration of the
    # bilinear hat on a 2x2 patch of h=1/2 cells)
    g = _identity(p=1, m=2)
    A = assemble_weighted_stiffness(g)
    dm = dof_map(3, 3)
    k = dm.interior[0]
    assert A.diagonal()[k] == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_stiffness_exactly_symmetric():
    g = _perturbed(p=3, m=3, seed=1)
    A = assemble_weighted_stiffness(g, weight=lambda x, y: 1.0 + x * 0 + 0.5 * y * 0 + x * y * 0 + np.exp(-x - y))
    d = (A - A.T).tocoo()
    assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0


def test_stiffness_weight_scaling_exact():
    g = _perturbed(p=2, m=3, seed=2)
    rng = np.random.default_rng(3)
    wvals = rng.uniform(0.5, 2.0, size=(len(g.kv_u.gauss.pts), len(g.kv_v.gauss.pts)))
    A1 = assemble_weighted_stiffness(g, wvals)
    A2 = assemble_weighted_stiffness(g, 2.0 * wvals)
    d = (A2 - 2.0 * A1).tocoo()
    assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0


def test_stiffness_rejects_nonpositive_weight():
    g = _identity(p=2, m=2)
    with pytest.raises(AssemblyError, match="element"):
        assemble_weighted_stiffness(g, weight=lambda x, y: x - 0.5)


def _mesh_3x4(p=2, mult=1):
    kv_u = make_open_knot_vector(p, 3, mult)
    kv_v = make_open_knot_vector(p, 4, mult)
    return build_identity_geometry(Rectangle(0, 1, 0, 1), kv_u, kv_v)


def _in_element(x, y, eu, ev, nu=3, nv=4):
    return (eu / nu < x) & (x < (eu + 1) / nu) & (ev / nv < y) & (y < (ev + 1) / nv)


def test_stiffness_names_element_with_nonpositive_weight():
    g = _mesh_3x4()
    with pytest.raises(AssemblyError, match=r"diffusion weight in element \(1, 2\)"):
        assemble_weighted_stiffness(g, weight=lambda x, y: np.where(_in_element(x, y, 1, 2), 0.0, 1.0))


def test_stiffness_weight_error_wins_in_first_bad_element():
    # fold the map by pushing one interior control point past its neighbour
    g = _mesh_3x4()
    cp = g.control_points.copy()
    cp[2, 3] = cp[3, 3] + (cp[3, 3] - cp[2, 3])
    g = NurbsGeometry(g.kv_u, g.kv_v, g.weights, cp)
    det = eval_geometry_grid(g, g.kv_u.gauss.pts, g.kv_v.gauss.pts, nders=1).det
    q = 3  # Gauss points per element direction at p = 2
    folded = [
        (eu, ev)
        for eu in range(3)
        for ev in range(4)
        if np.any(det[eu * q:(eu + 1) * q, ev * q:(ev + 1) * q] <= 0.0)
    ]
    # (2, 0) comes after the first folded element in row order but before
    # it in column order
    first, later = folded[0], (2, 0)
    assert first < later and first[1] > later[1]

    def block(e):
        w = np.ones_like(det)
        w[e[0] * q:(e[0] + 1) * q, e[1] * q:(e[1] + 1) * q] = -1.0
        return w

    where = rf"in element \({first[0]}, {first[1]}\)"
    with pytest.raises(AssemblyError, match="Jacobian determinant " + where):
        assemble_weighted_stiffness(g)
    with pytest.raises(AssemblyError, match="diffusion weight " + where):
        assemble_weighted_stiffness(g, block(first))
    with pytest.raises(AssemblyError, match="Jacobian determinant " + where):
        assemble_weighted_stiffness(g, block(later))


def _net(p, mult, weights, seed):
    """A perturbed 3 x 4 element net of degree p with interior knot
    multiplicity ``mult`` and unit, equal non-unit or random weights."""
    g0 = _mesh_3x4(p=p, mult=mult)
    rng = np.random.default_rng(seed)
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.02 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    w = {"unit": np.ones(g0.shape), "equal": np.full(g0.shape, 1.7),
         "random": rng.uniform(0.7, 1.4, size=g0.shape)}[weights]
    return NurbsGeometry(g0.kv_u, g0.kv_v, TensorWeights(w), cp)


def _random_rational(p, mult, seed):
    """A perturbed 3 x 4 element net with random weights."""
    return _net(p, min(mult, p), "random", seed)  # p=2 takes its C^0 multiplicity


def _one_hot_stiffness(g, wvals):
    """The stiffness as the dense quadrature sum of c grad R_k . grad R_l,
    c = Gauss weight * det J * ``wvals``, with R_k and its parametric
    gradient from grid evaluation of one-hot fields."""
    quad = fixed_basis(g, "gauss")
    geo = eval_geometry_grid(g, quad.u.pts, quad.v.pts, nders=1)
    one_hot = np.eye(g.ndof).reshape(*g.shape, -1)
    R = rational_grid_sums(g.kv_u, g.kv_v, g.weights, one_hot, quad.u.pts, quad.v.pts, 1)
    # d R / d x_b = sum_a d R / d s_a (J^-1)[a, b]
    grad = np.einsum("uvka,uvab->uvkb", np.stack([R[1, 0], R[0, 1]], axis=-1),
                     np.linalg.inv(geo.jac))
    c = np.multiply.outer(quad.u.wts, quad.v.wts) * geo.det * wvals
    return np.einsum("uv,uvkb,uvlb->kl", c, grad, grad)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3]), c0=st.booleans(),
       weights=st.sampled_from(["unit", "equal", "random"]), variable=st.booleans(),
       seed=st.integers(0, 2**16))
def test_stiffness_matches_one_hot_quadrature_oracle(p, c0, weights, variable, seed):
    # C^{p-1} or C^0 knots; a variable diffusion weight or none
    g = _net(p, p if c0 else 1, weights, seed)
    pu, pv = g.kv_u.gauss.pts, g.kv_v.gauss.pts
    wvals = np.ones((len(pu), len(pv)))
    if variable:
        wvals = 1.0 + 0.5 * np.sin(3.0 * np.add.outer(pu, 2.0 * pv))
    A = assemble_weighted_stiffness(g, wvals if variable else None)
    K = _one_hot_stiffness(g, wvals)
    assert np.max(np.abs(A.toarray() - K)) <= 1e-13 * np.max(np.abs(K))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _blocked_nets(draw):
    """A perturbed net of degrees 1-4, one per direction, on 1-9 x 1-9
    uniform elements, C^{p-1}, C^0 or with interior knots of mixed
    multiplicities 1 .. p, and equal or random weights."""
    kind = draw(st.sampled_from(["smooth", "C0", "mixed"]))

    def knots(p, m):
        mults = [{"smooth": 1, "C0": p, "mixed": draw(st.integers(1, p))}[kind]
                 for _ in range(m - 1)]
        inner = np.repeat(np.arange(1, m) / m, mults)
        return KnotVector(p, np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)]))

    kv_u, kv_v = (knots(draw(st.integers(1, 4)), draw(st.integers(1, 9))) for _ in range(2))
    g0 = build_identity_geometry(Rectangle(0, 1, 0, 2), kv_u, kv_v)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.02 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    w = np.full(g0.shape, 1.3) if draw(st.booleans()) else rng.uniform(0.7, 1.4, g0.shape)
    return NurbsGeometry(kv_u, kv_v, TensorWeights(w), cp)


# block budgets in bytes: one element a block, a few (the last one short),
# and one block for the whole grid
_BUDGETS = st.one_of(st.just(1), st.integers(2_000, 60_000), st.just(1 << 40))


def _weight(g, kind):
    """No diffusion weight, a random array of one on the Gauss grid, or a
    callable one."""
    shape = (len(g.kv_u.gauss.pts), len(g.kv_v.gauss.pts))
    return {"none": None,
            "array": np.random.default_rng(3).uniform(0.5, 2.0, shape),
            "callable": lambda x, y: 1.0 + x * x + 0.5 * np.sin(5.0 * y)}[kind]


_WEIGHT_KINDS = st.sampled_from(["none", "array", "callable"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=_blocked_nets(), weight_kind=_WEIGHT_KINDS, budget=_BUDGETS)
@example(g=_net(3, 1, "random", seed=1), weight_kind="array", budget=1)
@example(g=_net(3, 3, "unit", seed=2), weight_kind="none", budget=30_000)
def test_blocked_stiffness_has_the_bits_of_the_whole_grid_contraction(g, weight_kind, budget):
    weight = _weight(g, weight_kind)
    with mock.patch.object(assembly, "_BLOCK_BYTES", budget):
        A = assemble_weighted_stiffness(g, weight)
    assert _same_bits(A.toarray(), stiffness_whole_grid(g, weight).toarray())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=_blocked_nets(), weight_kind=_WEIGHT_KINDS, seed=st.integers(0, 99))
@example(g=_identity(p=3, m=2), weight_kind="callable", seed=0)
@example(g=_net(3, 3, "random", seed=4), weight_kind="array", seed=1)
def test_stiffness_by_diagonals_has_the_bits_of_the_csr_construction(g, weight_kind, seed):
    # the matrix by diagonals against the CSR matrix of the pairs that share
    # an element: the same entries, the products of CSR, bit-symmetric. On
    # coarse meshes (n2 <= 2 p_v, such as 2 x 2 cubic elements) two pairs
    # (di, dj) share an offset
    weight = _weight(g, weight_kind)
    A = assemble_weighted_stiffness(g, weight)
    ref = stiffness_whole_grid(g, weight)
    dense = A.toarray()
    assert _same_bits(dense, ref.toarray()) and _same_bits(dense, dense.T)
    assert np.all(np.diff(A.offsets) > 0)
    x = np.random.default_rng(seed).normal(size=g.ndof)
    assert _same_bits(A @ x, A.tocsr() @ x) and _same_bits(A @ x, ref @ x)


_SINE = ExactSolution(lambda x, y: np.sin(x) * np.sin(y),
                      lambda x, y: np.cos(x) * np.sin(y),
                      lambda x, y: np.sin(x) * np.cos(y))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=_blocked_nets(), budget=_BUDGETS, seed=st.integers(0, 99))
@example(g=_net(4, 1, "random", seed=3), budget=1, seed=0)
def test_blocked_error_norms_have_the_bits_of_the_whole_grid(g, budget, seed):
    u = FieldCoefficients(np.random.default_rng(seed).normal(size=g.ndof), g.shape)
    with mock.patch.object(assembly, "_BLOCK_BYTES", budget):
        rep = error_norms(g, u, _SINE)
    ref = error_norms_whole_grid(g, u, _SINE)
    for f in fields(rep):
        assert _same_bits(getattr(rep, f.name), getattr(ref, f.name)), f.name


def test_stiffness_and_error_norms_stay_near_the_matrix_in_memory():
    # p=3, 64 x 64 C^2 elements: above its inputs (the discretization and the
    # Gauss-grid geometry), the stiffness's traced peak is under 2x the
    # matrix's own bytes (diagonals and offsets), and that of the error
    # norms under 13 float arrays over the error Gauss grid (320 x 320).
    # The band and the diagonals take 1.6x; the error norms keep their
    # whole-grid contractions, 10.6 arrays. Whole-grid temporaries took 3.7x
    # the bytes of the matrix in CSR form and 18 arrays
    kv = make_open_knot_vector(3, 64)
    g = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    disc = discretization(g)
    geo = eval_geometry_grid(g, kv.gauss.pts, kv.gauss.pts, 1)
    u = FieldCoefficients(np.random.default_rng(0).normal(size=g.ndof), g.shape)
    error_norms(g, u, _SINE)  # the knot vectors' memo tables, kept, grow here
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        A = assemble_weighted_stiffness(g, disc=disc, geo=geo)
        stiffness = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        error_norms(g, u, _SINE)
        errors = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    own = A.data.nbytes + A.offsets.nbytes
    assert stiffness < 2.0 * own, stiffness / own
    grid = 8 * len(kv.error_gauss.pts) ** 2
    assert errors < 13 * grid, errors / grid


@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("p,mult", [(2, 1), (2, 2), (3, 1), (3, 3)])
def test_stiffness_is_bit_symmetric_and_reproducible(p, mult, weights):
    g = _net(p, mult, weights, seed=40 + p + mult)
    weight = lambda x, y: 1.0 + x * x + 0.5 * np.sin(5.0 * y)
    A = assemble_weighted_stiffness(g, weight)
    assert (A != A.T).nnz == 0
    B = assemble_weighted_stiffness(g, weight)
    for name in ("data", "offsets"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


@pytest.mark.parametrize("p", [2, 3])
def test_stiffness_pattern_is_the_shared_element_pattern(p):
    # on C^0 knots some pairs with |i - i'| <= p share no element: their
    # entries are exact zeros, which the CSR form drops
    g = _net(p, p, "random", seed=50 + p)
    A = assemble_weighted_stiffness(g).tocsr()
    S = shared_element_pattern(g.kv_u, g.kv_v)
    near = [np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= p for n in g.shape]
    assert S.nnz < np.kron(*near).sum()
    assert np.array_equal(A.indices, S.indices) and np.array_equal(A.indptr, S.indptr)


def test_preconditioner_factors_once_per_knot_vector(monkeypatch):
    # each direction's eigendecomposition is a memo entry of its knot vector:
    # one eigh for a square mesh, one per knot vector otherwise, and none for
    # a second solve on the same knot vectors
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    def solve(g):
        bc = lambda x, y: x - y
        solve_dirichlet(assemble_weighted_stiffness(g), np.zeros(g.ndof), g, _cold(g, bc))

    monkeypatch.setattr(np.linalg, "eigh", counting)
    kv = make_open_knot_vector(3, 8, 3)
    square = build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)
    solve(square)
    assert len(calls) == 1
    calls.clear()
    solve(square)
    assert calls == []
    g = _random_rational(3, 1, seed=8)
    assert g.kv_u is not g.kv_v
    solve(g)
    assert len(calls) == 2
    calls.clear()
    solve(refit_from_node_targets(g, mesh_nodes(g) * 1.01))
    assert calls == []


@pytest.mark.parametrize("weight_kind", ["none", "array", "callable"])
@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_stiffness_with_discretization_is_bit_identical(p, mult, weight_kind):
    g = _random_rational(p, mult, seed=10 * p + mult)
    disc = discretization(g)
    # a second control net on the same knots and weights reuses it
    g2 = refit_from_node_targets(g, mesh_nodes(g) * 1.01)
    shape = (len(g.kv_u.gauss.pts), len(g.kv_v.gauss.pts))
    weight = {
        "none": None,
        "array": np.random.default_rng(1).uniform(0.5, 2.0, shape),
        "callable": lambda x, y: 1.0 + x * x + 0.5 * y,
    }[weight_kind]
    for geom in (g, g2):
        A = assemble_weighted_stiffness(geom, weight)
        B = assemble_weighted_stiffness(geom, weight, disc=disc)
        for name in ("data", "offsets"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_discretization_rejects_other_knots_weights_or_quadrature():
    g = _random_rational(3, 1, seed=5)
    disc = discretization(g)
    other_knots = _mesh_3x4(p=3, mult=3)
    other_weights = NurbsGeometry(g.kv_u, g.kv_v, TensorWeights(np.ones(g.shape)),
                                  g.control_points)
    with pytest.raises(ValueError, match="knots"):
        assemble_weighted_stiffness(other_knots, disc=disc)
    with pytest.raises(ValueError, match="weights"):
        assemble_weighted_stiffness(other_weights, disc=disc)


def test_discretization_size_matches_memory_formula():
    # 3 x 4 cubic elements, 6 x 7 functions: 10 upper u pairs and 16 v pairs
    # per element, 4 Gauss points per direction; the matrix stores 7 x 7
    # diagonals of 42 entries, offsets di * 7 + dj
    g = _random_rational(3, 1, seed=6)
    disc = discretization(g)
    assert disc.pairs_u.shape == (4, 3, 10, 4)
    assert disc.pairs_v.shape == (4, 16, 9 * 4)
    assert disc.scatter_u.shape == (6 * 4, 3 * 10)
    floats = 6 * 7 + disc.pairs_u.size + disc.pairs_v.size
    scatter = sum(a.nbytes for a in (disc.scatter_u.data, disc.scatter_u.indices,
                                     disc.scatter_u.indptr))
    assert disc.nbytes == 8 * floats + scatter
    assert not disc.pairs_u.flags.writeable and not disc.pairs_v.flags.writeable
    A = assemble_weighted_stiffness(g, disc=disc)
    offsets = np.add.outer(7 * np.arange(-3, 4), np.arange(-3, 4)).ravel()
    assert A.data.shape == (49, 42) and np.array_equal(A.offsets, offsets)
    # 2 x 2 cubic elements, 5 x 5 functions: (di, dj) and (di + 1, dj - 5)
    # share an offset, so the upper offsets are 0 .. 18
    A = assemble_weighted_stiffness(_identity(p=3, m=2))
    assert A.data.shape == (37, 25) and np.array_equal(A.offsets, np.arange(-18, 19))
    # knot-only data stays small: under 1 MB at 128 x 128 cubic elements
    kv = make_open_knot_vector(3, 128)
    assert discretization(build_identity_geometry(Rectangle(0, 1, 0, 1), kv, kv)).nbytes < 1e6


def test_forms_take_a_shared_geometry_grid_bit_identically():
    g = _random_rational(3, 1, seed=7)
    pu, pv = g.kv_u.gauss.pts, g.kv_v.gauss.pts
    geo = eval_geometry_grid(g, pu, pv, nders=1)
    f = lambda x, y: 1.0 + np.sin(3.0 * x) * np.exp(y)
    assert np.array_equal(assemble_load(g, f, geo=geo), assemble_load(g, f))
    A, B = assemble_weighted_stiffness(g, geo=geo), assemble_weighted_stiffness(g)
    assert np.array_equal(A.data, B.data)
    wrong = eval_geometry_grid(g, pu[:-1], pv, nders=1)
    for form in (lambda: assemble_load(g, f, geo=wrong),
                 lambda: assemble_weighted_stiffness(g, geo=wrong)):
        with pytest.raises(ValueError, match="quadrature grid"):
            form()


def test_interior_stiffness_spd():
    g = _perturbed(p=2, m=4, seed=4)
    A = assemble_weighted_stiffness(g)
    dm = dof_map(*g.shape)
    A_ii = A.tocsr()[dm.interior][:, dm.interior]
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=A_ii.shape[0])
        assert x @ (A_ii @ x) > 0.0


# ---------------------------------------------------------------------- load

def test_load_zero_source():
    g = _identity(p=2, m=3)
    assert np.all(assemble_load(g, lambda x, y: np.zeros_like(x)) == 0.0)


def test_load_unit_source_sums_to_area():
    g = _identity(p=3, m=3, rect=Rectangle(-1, 1, -1, 1))
    b = assemble_load(g, lambda x, y: np.ones_like(x))
    assert b.sum() == pytest.approx(4.0, abs=1e-12)


def _one_hot_load(g, f, extra=0):
    """The load as the sum of f R_k det J over the element Gauss grid of
    degree + 1 + ``extra`` points per direction, with R_k from grid
    evaluation of one-hot fields."""
    (pu, wu), (pv, wv) = (element_quadrature_1d(kv, kv.degree + 1 + extra)
                          for kv in (g.kv_u, g.kv_v))
    geo = eval_geometry_grid(g, pu, pv, nders=1)
    fvals = f(geo.points[..., 0], geo.points[..., 1])
    c = np.multiply.outer(wu, wv) * geo.det * fvals
    one_hot = np.eye(g.ndof).reshape(*g.shape, -1)
    R = rational_grid_sums(g.kv_u, g.kv_v, g.weights, one_hot, pu, pv, 0)
    return np.einsum("uv,uvk->k", c, R[0, 0])


def test_load_matches_refined_quadrature_oracle():
    g = _identity(p=3, m=4, rect=Rectangle(-1, 1, -1, 1))
    f = lambda x, y: 2.0 * np.sin(x) * np.sin(y)
    b = assemble_load(g, f)
    b_fine = _one_hot_load(g, f, extra=4)
    assert np.allclose(b, b_fine, atol=1e-10)


def test_load_on_rational_geometry_matches_one_hot_quadrature():
    # on a perturbed net with random weights the load must be the quadrature
    # sum of f R_k det J with R_k from grid evaluation of one-hot fields
    g0 = _mesh_3x4(p=3)
    rng = np.random.default_rng(10)
    cp = g0.control_points.copy()
    cp[1:-1, 1:-1] += 0.03 * rng.uniform(-1, 1, size=cp[1:-1, 1:-1].shape)
    w = TensorWeights(rng.uniform(0.7, 1.4, size=g0.shape))
    g = NurbsGeometry(g0.kv_u, g0.kv_v, w, cp)
    f = lambda x, y: 1.0 + np.sin(3.0 * x) * np.exp(y)
    b = assemble_load(g, f)
    assert np.allclose(b, _one_hot_load(g, f), rtol=0, atol=1e-13)


def test_load_rejects_non_finite_source():
    g = _identity(p=2, m=2)

    def f(x, y):
        out = np.ones_like(x)
        out[x > 0.5] = np.nan
        return out

    with pytest.raises(AssemblyError, match="element"):
        assemble_load(g, f)


def test_load_names_element_with_non_finite_source():
    g = _mesh_3x4()
    with pytest.raises(AssemblyError, match=r"source value in element \(1, 2\)"):
        assemble_load(g, lambda x, y: np.where(_in_element(x, y, 1, 2), np.nan, 1.0))


# ----------------------------------------------------------------- dirichlet

def _cold(g, bc):
    """The cold start of a Dirichlet solve: the boundary coefficients of
    ``bc`` on the ring, zero inside."""
    return FieldCoefficients(boundary_values(g, bc), g.shape)


def test_dirichlet_zero_bc_reduces_to_interior_restriction():
    g = _identity(p=2, m=3)
    A = assemble_weighted_stiffness(g)
    b = assemble_load(g, lambda x, y: np.ones_like(x))
    cold = _cold(g, lambda x, y: np.zeros_like(x))
    assert np.all(cold.values == 0.0)
    red = apply_dirichlet(A, b, cold)
    assert np.allclose(red.rhs, b[red.dofs.interior])


def test_dirichlet_linear_bc_reproduced_exactly():
    # an affine function of the physical coordinates lies in the rational
    # trace space of every edge, so the projection reproduces it; the
    # non-unit weights exercise the weighting of the trace basis
    g1 = _identity(p=3, m=3, rect=Rectangle(-1, 1, -1, 1))
    rng = np.random.default_rng(9)
    gw = NurbsGeometry(g1.kv_u, g1.kv_v,
                       TensorWeights(rng.uniform(0.6, 1.8, size=g1.shape)),
                       g1.control_points)
    bc = lambda x, y: 0.75 * x - 1.25 * y + 0.5
    t = np.linspace(0, 1, 101)
    for g in (g1, gw):
        A = assemble_weighted_stiffness(g)
        field = solve_dirichlet(A, np.zeros(g.ndof), g, _cold(g, bc))
        # evaluate the boundary trace on each edge and compare with bc
        for pu, pv in ((t, np.zeros(1)), (t, np.ones(1)), (np.zeros(1), t), (np.ones(1), t)):
            vals = eval_field_grid(g, field, pu, pv).values.ravel()
            pts = eval_geometry_grid(g, pu, pv, 0).points.reshape(-1, 2)
            assert np.allclose(vals, bc(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_dirichlet_eliminates_the_ring_of_the_start_field():
    # the ring is the data and the interior only CG's first guess: the
    # reduced system does not read the interior, and the solve returns the
    # start's ring bit for bit and the same interior to the tolerance
    g = _random_rational(3, 1, seed=9)
    bc = lambda x, y: 1.0 + x * y
    A = assemble_weighted_stiffness(g)
    b = assemble_load(g, lambda x, y: np.ones_like(x))
    cold = _cold(g, bc)
    assert not boundary_values(g, bc).flags.writeable
    ref = apply_dirichlet(A, b, cold)
    dm = dof_map(*g.shape)
    rng = np.random.default_rng(3)
    noisy = np.array(cold.values)
    noisy[dm.interior] = rng.normal(size=len(dm.interior))
    noisy = FieldCoefficients(noisy, g.shape)
    red = apply_dirichlet(A, b, noisy)
    A_ii = A.tocsr()[dm.interior][:, dm.interior]
    x = rng.normal(size=len(dm.interior))
    assert np.array_equal(red @ x, A_ii @ x) and np.array_equal(ref @ x, A_ii @ x)
    assert np.array_equal(red.rhs, ref.rhs)
    lin = LinearSolverSettings(tol=1e-12)
    sol, ref_sol = solve_dirichlet(A, b, g, noisy, lin), solve_dirichlet(A, b, g, cold, lin)
    assert np.array_equal(sol.values[dm.boundary], cold.values[dm.boundary])
    assert np.linalg.norm(sol.values - ref_sol.values) <= 1e-9 * np.linalg.norm(ref_sol.values)


@pytest.mark.parametrize("p,mult", [(2, 1), (3, 3)])
def test_reduced_system_is_the_interior_slice_of_the_discretization_pattern(p, mult):
    # the reference is the elimination by scipy slicing, A[I][:, I] and
    # b_I - A_I x_B: the reduced system applies the slice, and reads its
    # diagonal, bit for bit without copying it out of A. A matrix of another
    # pattern is eliminated the same way; a start of another size is refused
    from scipy.sparse.linalg import spsolve

    g = _random_rational(p, mult, seed=60 + p + mult)
    disc = discretization(g)
    bc = lambda x, y: np.sin(x) * np.cos(y)
    A = assemble_weighted_stiffness(g, lambda x, y: 1.0 + x * y, disc=disc)
    b = assemble_load(g, lambda x, y: np.exp(x - y))
    I = dof_map(*g.shape).interior
    xb = boundary_values(g, bc)
    C = A.tocsr()
    ref = C[I][:, I]
    red = apply_dirichlet(A, b, _cold(g, bc))
    assert red.A is A
    for x in np.random.default_rng(p + mult).normal(size=(5, len(I))):
        assert np.array_equal(red @ x, ref @ x)
    assert np.array_equal(red.diagonal(), ref.diagonal())
    assert np.array_equal(red.rhs, b[I] - C[I] @ xb)
    thinned = C.copy()  # another pattern: one interior-interior pair not stored
    r = I[len(I) // 2]
    for i, j in ((r, r + 1), (r + 1, r)):
        row = slice(C.indptr[i], C.indptr[i + 1])
        thinned.data[row][C.indices[row] == j] = 0.0
    thinned.eliminate_zeros()
    assert thinned.nnz == C.nnz - 2
    u = solve_dirichlet(thinned, b, g, _cold(g, bc), LinearSolverSettings(tol=1e-12))
    direct = spsolve(thinned[I][:, I].tocsc(), b[I] - thinned[I] @ xb)
    assert np.linalg.norm(u.values[I] - direct) <= 1e-9 * np.linalg.norm(direct)
    with pytest.raises(ValueError, match="start field on grid"):
        apply_dirichlet(A, b, FieldCoefficients(np.zeros(g.ndof + g.shape[1]),
                                                (g.shape[0] + 1, g.shape[1])))


def test_dirichlet_refuses_a_right_hand_side_of_another_length():
    # one entry per row of A: a short or a long b, or a 2D one, is an error
    # and not a solve of some other system
    g = _random_rational(3, 1, seed=61)
    A, b = assemble_weighted_stiffness(g), assemble_load(g, lambda x, y: 1.0 + x * y)
    start = _cold(g, lambda x, y: x + y)
    for bad in (b[:-3], np.concatenate([b, np.ones(7)]), b[:, None]):
        with pytest.raises(ValueError, match="right-hand side of shape"):
            apply_dirichlet(A, bad, start)
        with pytest.raises(ValueError, match="right-hand side of shape"):
            solve_dirichlet(A, bad, g, start)


def test_dirichlet_trace_interpolation_fourth_order():
    # the p=3 edge trace is the corner-constrained L2 projection of the
    # data, so its max error along the edge must shrink like h^4
    bc = lambda x, y: np.sin(x) * np.sin(y)
    errs = []
    for m in (2, 4, 8, 16):
        g = _identity(p=3, m=m, rect=Rectangle(-1, 1, -1, 1))
        field = _cold(g, bc)
        t = np.linspace(0, 1, 101)
        vals = eval_field_grid(g, field, t, np.zeros(1)).values.ravel()
        pts = eval_geometry_grid(g, t, np.zeros(1), 0).points.reshape(-1, 2)
        errs.append(np.max(np.abs(vals - bc(pts[:, 0], pts[:, 1]))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] > 3.5


# ------------------------------------------------------------ preconditioner

def _reduced(g, f=lambda x, y: 1.0 + x * y, bc=lambda x, y: np.sin(x) * np.cos(y)):
    return apply_dirichlet(assemble_weighted_stiffness(g), assemble_load(g, f), _cold(g, bc))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("mult", [1, 3])
def test_fast_diagonalization_inverts_the_identity_geometry_laplacian(m, mult):
    # unit weights on a square: the interior matrix is K (x) M + M (x) K
    # itself, so the preconditioned system is the identity up to rounding
    g = _identity(p=3, m=m, rect=Rectangle(-1, 1, -1, 1), mult=mult)
    red = _reduced(g)
    _, it = cg_solve(red, red.rhs, tol=1e-12, precond=fast_diagonalization(g.kv_u, g.kv_v, red))
    assert it <= 2


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("c0", [False, True])
@pytest.mark.parametrize("p", [2, 3])
def test_fast_diagonalization_factors_are_the_generalized_eigenpairs(p, c0, m):
    # U^T M U = I and K U = M U L for the interior 1D stiffness K and mass M
    # on the assembly Gauss rule, whose diagonals are k and m; all read-only
    kv = make_open_knot_vector(p, m, p if c0 else 1)
    eigen = kv.interior_eigen
    N, dN = (kv.gauss.D[der][:, 1:-1] for der in (0, 1))
    K = dN.T @ (kv.gauss.wts[:, None] * dN)
    M = N.T @ (kv.gauss.wts[:, None] * N)
    U, lam = eigen.U, eigen.lam
    assert np.array_equal(eigen.k, np.diag(K)) and np.array_equal(eigen.m, np.diag(M))
    assert not any(a.flags.writeable for a in (U, lam, eigen.k, eigen.m))
    assert np.abs(U.T @ M @ U - np.eye(len(lam))).max() <= 1e-13
    assert np.abs(K @ U - M @ U * lam).max() <= 1e-12 * np.abs(K).max()


@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_preconditioned_solve_matches_a_direct_solve(p, mult):
    from scipy.sparse.linalg import spsolve

    g = _random_rational(p, mult, seed=20 + 10 * p + mult)
    f, bc = (lambda x, y: 1.0 + x * y), (lambda x, y: np.sin(x) * np.cos(y))
    A = assemble_weighted_stiffness(g)
    red = _reduced(g, f, bc)
    I = red.dofs.interior
    ref = spsolve(A.tocsc()[I][:, I], red.rhs)
    u = solve_dirichlet(A, assemble_load(g, f), g, _cold(g, bc), LinearSolverSettings(tol=1e-12))
    x = u.values[I]
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_preconditioner_is_symmetric_positive_definite():
    g = _random_rational(3, 1, seed=31)
    red = _reduced(g)
    I = red.dofs.interior
    apply = fast_diagonalization(g.kv_u, g.kv_v, red.A.tocsr()[I][:, I])
    n = len(I)
    P = np.column_stack([apply(e) for e in np.eye(n)])
    assert np.max(np.abs(P - P.T)) <= 1e-13 * np.max(np.abs(P))
    for r in np.random.default_rng(4).normal(size=(20, n)):
        assert apply(r) @ r > 0.0


def test_solves_with_and_without_discretization_are_bit_identical():
    # a stiffness assembled on a given discretization solves to the same
    # bits as one that built its own, and as the one-shot solve_poisson
    g = _random_rational(3, 3, seed=32)
    f, bc = (lambda x, y: 1.0 + x * y), (lambda x, y: np.sin(x) * np.cos(y))
    A, b = assemble_weighted_stiffness(g), assemble_load(g, f)
    u = solve_dirichlet(A, b, g, _cold(g, bc))
    A_disc = assemble_weighted_stiffness(g, disc=discretization(g))
    assert np.array_equal(solve_dirichlet(A_disc, b, g, _cold(g, bc)).values, u.values)
    assert np.array_equal(solve_poisson(g, f, bc).values, u.values)


def test_dirichlet_solve_builds_no_discretization(monkeypatch):
    # the solve reads only the grid shape and the knot vectors' memo
    # entries of its geometry: it runs with discretization() broken
    g = _random_rational(3, 1, seed=33)
    f, bc = (lambda x, y: 1.0 + x * y), (lambda x, y: np.sin(x) * np.cos(y))
    A, b = assemble_weighted_stiffness(g), assemble_load(g, f)
    ref = solve_dirichlet(A, b, g, _cold(g, bc))

    def broken(g):
        raise AssertionError("a Dirichlet solve built a discretization")

    monkeypatch.setattr(assembly, "discretization", broken)
    assert np.array_equal(solve_dirichlet(A, b, g, _cold(g, bc)).values, ref.values)


def test_map_solves_without_discretization_build_one_for_both_components(monkeypatch):
    # the stiffness builds the one discretization of the call, and neither
    # component solve builds another
    from mmiga.movemesh import (
        MonitorSpec,
        init_logical_mesh,
        make_boundary_map,
        solve_harmonic_map,
    )

    g = _random_rational(3, 1, seed=35)
    bm = make_boundary_map(Rectangle(0, 1, 0, 1), Rectangle(0, 1, 0, 1))
    lin = LinearSolverSettings(tol=1e-10)
    built = []

    def counting(g):
        built.append(1)
        return build(g)

    build = assembly.discretization
    monkeypatch.setattr(assembly, "discretization", counting)
    lm = init_logical_mesh(g, bm, lin)
    assert len(built) == 1
    u = FieldCoefficients(np.zeros(g.ndof), g.shape)
    solve_harmonic_map(g, MonitorSpec(), u, lm.fields, lin)
    assert len(built) == 2


def test_solves_start_from_the_interior_of_the_start_field(monkeypatch):
    from mmiga import assembly

    g = _random_rational(3, 1, seed=34)
    f, bc = (lambda x, y: 1.0 + x * y), (lambda x, y: np.sin(x) * np.cos(y))
    lin = LinearSolverSettings(tol=1e-12)
    A, b = assemble_weighted_stiffness(g), assemble_load(g, f)
    iters = []

    def counting(*args, **kwargs):
        x, it = cg_solve(*args, **kwargs)
        iters.append(it)
        return x, it

    monkeypatch.setattr(assembly, "cg_solve", counting)
    u = solve_dirichlet(A, b, g, _cold(g, bc), lin)
    warm = solve_dirichlet(A, b, g, u, lin)
    assert iters[0] > 1 and iters[1] <= 1
    assert np.linalg.norm(warm.values - u.values) <= 1e-10 * np.linalg.norm(u.values)
    # the ring is the data: a start with another ring solves another problem
    grid = u.grid.copy()
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 7.0
    seven = solve_dirichlet(A, b, g, FieldCoefficients.from_grid(grid), lin)
    ring = dof_map(*g.shape).boundary
    assert np.all(seven.values[ring] == 7.0)
    assert np.linalg.norm(seven.values - u.values) > 1.0
    other = FieldCoefficients(np.zeros(g.ndof), (g.shape[1], g.shape[0]))
    assert other.shape != g.shape
    with pytest.raises(ValueError, match="start field"):
        solve_dirichlet(A, b, g, other, lin)


def test_nonpositive_interior_diagonal_raises_breakdown():
    g = _random_rational(3, 1, seed=33)
    A = assemble_weighted_stiffness(g).tocsr()
    i = dof_map(*g.shape).interior[5]
    A[i, i] = -A[i, i]
    with pytest.raises(BreakdownError, match="diagonal"):
        solve_dirichlet(A, np.ones(g.ndof), g, _cold(g, lambda x, y: x + y))


@pytest.mark.parametrize("pu,mu", [(1, 1), (3, 2)])
def test_empty_interior_returns_the_boundary_solution(pu, mu):
    # degree 1 on one element along v: two functions there, so no interior
    kv_u = make_open_knot_vector(pu, mu)
    kv_v = make_open_knot_vector(1, 1)
    g = build_identity_geometry(Rectangle(0, 2, 0, 1), kv_u, kv_v)
    bc = lambda x, y: 1.0 + x - 2.0 * y
    u = solve_poisson(g, lambda x, y: np.zeros_like(x), bc)
    assert np.array_equal(u.values, boundary_values(g, bc))


# ------------------------------------------------------------------- poisson

def test_poisson_zero_data_gives_zero_field():
    g = _identity(p=2, m=3)
    u = solve_poisson(g, lambda x, y: np.zeros_like(x), lambda x, y: np.zeros_like(x))
    assert np.allclose(u.values, 0.0, atol=1e-14)


def test_poisson_galerkin_orthogonality():
    g = _identity(p=3, m=4, rect=Rectangle(-1, 1, -1, 1))
    f = lambda x, y: 2.0 * np.sin(x) * np.sin(y)
    bc = lambda x, y: np.sin(x) * np.sin(y)
    A = assemble_weighted_stiffness(g)
    b = assemble_load(g, f)
    u = solve_poisson(g, f, bc, LinearSolverSettings(tol=1e-13))
    dm = dof_map(*g.shape)
    resid = b - A @ u.values
    assert np.max(np.abs(resid[dm.interior])) <= 1e-9 * np.linalg.norm(b)


# ---------------------------------------------------------------- field eval

def test_eval_field_linear_function_exact():
    g = _identity(p=2, m=3)
    gu = greville_abscissae(g.kv_u)
    U, V = np.meshgrid(gu, gu, indexing="ij")
    coeffs = FieldCoefficients.from_grid(2.0 * U - 3.0 * V + 0.5)
    ev = eval_field(g, coeffs, (0.3, 0.8), nders=2)
    # Greville coefficients of a linear function reproduce it exactly
    assert ev.value == pytest.approx(2.0 * 0.3 - 3.0 * 0.8 + 0.5, abs=1e-12)
    assert np.allclose(ev.grad, [2.0, -3.0], atol=1e-10)
    assert np.allclose(ev.hess, 0.0, atol=1e-10)


def test_eval_field_quadratic_hessian():
    g = _identity(p=2, m=4, rect=Rectangle(-1, 1, -1, 1))
    f = lambda x, y: x**2 + y**2
    u = solve_poisson(g, lambda x, y: -4.0 * np.ones_like(x), f,
                      LinearSolverSettings(tol=1e-13))
    ev = eval_field(g, u, (0.37, 0.61), nders=2)
    assert np.allclose(ev.hess, 2.0 * np.eye(2), atol=1e-9)


def test_eval_field_derivatives_match_physical_finite_differences():
    g = _perturbed(p=3, m=3, seed=7)
    rng = np.random.default_rng(8)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)

    # physical-space probe: resolve x back to parameters with a Newton loop
    def value_at_physical(x, y, s0):
        s = np.array(s0)
        for _ in range(60):
            ev = map_point(g, s)
            r = ev.point - [x, y]
            if np.linalg.norm(r) < 1e-14:
                break
            s = s - np.linalg.solve(ev.jac, r)
            s = np.clip(s, 0.0, 1.0)
        return eval_field(g, u, s).value

    for s in rng.uniform(0.25, 0.75, size=(12, 2)):
        ev = eval_field(g, u, s, nders=2)
        x, y = map_point(g, s, 0).point
        f = lambda px, py: value_at_physical(px, py, s)
        fd_grad = grad_fd(f, (x, y), h=1e-6)
        assert np.allclose(ev.grad, fd_grad, rtol=1e-4, atol=1e-6)
        fd_hess = hess_fd(f, (x, y), h=1e-4)
        assert np.allclose(ev.hess, fd_hess, rtol=1e-3, atol=5e-3)


@pytest.mark.parametrize("nders", [1, 2])
def test_eval_field_tabulates_once_when_it_evaluates_the_geometry(monkeypatch, nders):
    # with no geo given, the control points and the field share one
    # tabulation of the points, and give the bits of the two separate
    # evaluations
    from mmiga import splines

    g = _perturbed(p=3, m=4, seed=3)
    rng = np.random.default_rng(4)
    g = NurbsGeometry(g.kv_u, g.kv_v, TensorWeights(1.0 + 0.2 * rng.random(g.shape)),
                      g.control_points)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    pts_u, pts_v = np.linspace(0.1, 0.9, 7), np.linspace(0.05, 0.95, 5)
    calls = []

    def counting(kv, pts, der=0):
        calls.append(der)
        return real(kv, pts, der)

    real = splines.basis_matrix
    monkeypatch.setattr(splines, "basis_matrix", counting)
    fg = eval_field_grid(g, u, pts_u, pts_v, nders=nders)
    n_field = len(calls)
    calls.clear()
    geo = eval_geometry_grid(g, pts_u, pts_v, nders)
    assert n_field == len(calls) > 0
    apart = eval_field_grid(g, u, pts_u, pts_v, nders=nders, geo=geo)
    for got, want in ((fg.values, apart.values), (fg.grad, apart.grad), (fg.hess, apart.hess)):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("grid", ["greville", "arbitrary"])
@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("nders", [1, 2])
def test_eval_field_gives_the_same_bits_with_and_without_geo(m, grid, weights, nders):
    # a field evaluated on its own and one given the geometry's evaluation
    # take the same path, so they agree bit for bit; from m = 16 up, because
    # on smaller grids two different contractions may still round alike
    g = _perturbed(p=3, m=m, scale=0.2 / m, seed=m)
    rng = np.random.default_rng(m + 1)
    w = np.ones(g.shape) if weights == "unit" else rng.uniform(0.7, 1.4, size=g.shape)
    g = NurbsGeometry(g.kv_u, g.kv_v, TensorWeights(w), g.control_points)
    u = FieldCoefficients(rng.normal(size=g.ndof), g.shape)
    if grid == "greville":
        pts_u, pts_v = g.kv_u.greville.pts, g.kv_v.greville.pts
    else:
        pts_u, pts_v = np.sort(rng.random(2 * m + 3)), np.sort(rng.random(2 * m + 1))
    alone = eval_field_grid(g, u, pts_u, pts_v, nders=nders)
    geo = eval_geometry_grid(g, pts_u, pts_v, nders)
    given = eval_field_grid(g, u, pts_u, pts_v, nders=nders, geo=geo)
    for name in ("values", "grad", "hess"):
        got, want = getattr(alone, name), getattr(given, name)
        assert (got is None and want is None) or np.array_equal(got, want), name


def _field_on_a_9x9_grid():
    g = _perturbed(p=3, m=8, scale=0.05, seed=11)
    u = FieldCoefficients(np.random.default_rng(12).normal(size=g.ndof), g.shape)
    return g, u, np.linspace(0.05, 0.95, 9)


def test_eval_field_refuses_a_geometry_of_other_points():
    g, u, pts = _field_on_a_9x9_grid()
    for other in ((np.linspace(0.1, 0.9, 9), pts), (pts, pts[::-1])):
        with pytest.raises(ValueError, match="points"):
            eval_field_grid(g, u, pts, pts, nders=1, geo=eval_geometry_grid(g, *other, 1))


def test_eval_field_evaluates_a_geometry_of_too_low_an_order_again():
    g, u, pts = _field_on_a_9x9_grid()
    want = eval_field_grid(g, u, pts, pts, nders=2)
    for order, nders in ((0, 1), (0, 2), (1, 2)):
        got = eval_field_grid(g, u, pts, pts, nders=nders,
                              geo=eval_geometry_grid(g, pts, pts, order))
        assert np.array_equal(got.grad, want.grad)
        assert nders < 2 or np.array_equal(got.hess, want.hess)


def test_field_coefficients_shape_validation():
    with pytest.raises(ValueError):
        FieldCoefficients(np.zeros(7), (2, 3))
