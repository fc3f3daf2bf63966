import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmiga.splines import (
    KnotVector,
    _element_lattice,
    _find_spans,
    TensorWeights,
    basis_matrix,
    eval_basis,
    greville_abscissae,
    lattice_points,
    make_open_knot_vector,
)

from mmiga.geometry import rational_grid_sums

from oracles import bspline_deriv_recursive, bspline_value_recursive, find_span, greville_loop


def test_make_open_knot_vector_hat_basis():
    kv = make_open_knot_vector(1, 2, 1)
    assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])
    assert kv.n == 3


def test_make_open_knot_vector_c0_cubic():
    kv = make_open_knot_vector(3, 2, 3)
    assert np.allclose(kv.knots, [0, 0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1, 1])
    assert kv.n == 7
    assert kv.n**2 == 49


def test_make_open_knot_vector_smooth_cubic():
    kv = make_open_knot_vector(3, 4, 1)
    assert kv.n == 7
    assert kv.n**2 == 49


@pytest.mark.parametrize("bad", [dict(degree=3, spans=2, multiplicity=4),
                                 dict(degree=3, spans=2, multiplicity=0),
                                 dict(degree=2, spans=0, multiplicity=1)])
def test_make_open_knot_vector_rejects_bad_args(bad):
    with pytest.raises(ValueError):
        make_open_knot_vector(**bad)


def test_knot_vector_rejects_interior_multiplicity_above_degree():
    with pytest.raises(ValueError):
        KnotVector(2, np.array([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1]))


def test_knot_vector_rejects_decreasing():
    with pytest.raises(ValueError):
        KnotVector(1, np.array([0, 0, 0.6, 0.4, 1, 1]))


def test_knot_vectors_are_equal_and_hash_alike_by_degree_and_knots():
    # distinct instances compare by value; memo entries take no part
    kv = make_open_knot_vector(3, 4, 1)
    same = KnotVector(3, kv.knots.copy())
    assert kv == same and hash(kv) == hash(same)
    kv.gauss, kv.element_pairs  # memo entries on one of the two only
    assert kv == same and hash(kv) == hash(same) and len({kv, same}) == 1
    assert KnotVector(1, [-0.0, 0, 1, 1]) == KnotVector(1, [0.0, 0, 1, 1])
    assert hash(KnotVector(1, [-0.0, 0, 1, 1])) == hash(KnotVector(1, [0.0, 0, 1, 1]))
    others = [make_open_knot_vector(2, 4, 1), make_open_knot_vector(3, 5, 1),
              make_open_knot_vector(3, 4, 2)]
    assert all(kv != o for o in others) and len({kv, *others}) == 4
    assert kv != 3 and kv != "kv"


def test_find_span_conventions():
    kv = KnotVector(1, np.array([0, 0, 0.5, 1, 1]))
    assert eval_basis(kv, 0.25).span == 1
    assert eval_basis(kv, 1.0).span == 2  # right endpoint: last nonempty span
    kv2 = KnotVector(2, np.array([0, 0, 0, 0.5, 1, 1, 1]))
    assert eval_basis(kv2, 0.5).span == 3  # left-closed convention


def test_find_span_skips_zero_length_spans():
    kv = make_open_knot_vector(3, 2, 3)
    assert eval_basis(kv, 0.5).span == 6
    assert eval_basis(kv, 1.0).span == 6


def test_eval_basis_linear_hats():
    kv = KnotVector(1, np.array([0, 0, 0.5, 1, 1]))
    ev = eval_basis(kv, 0.25)
    assert ev.span == 1
    assert np.allclose(ev.values, [0.5, 0.5])


def test_eval_basis_matches_recursive_oracle():
    kv = KnotVector(2, np.array([0, 0, 0, 0.5, 1, 1, 1]))
    t = 0.25
    ev = eval_basis(kv, t)
    expected = [bspline_value_recursive(kv.knots, 2, i, t) for i in range(kv.n)]
    full = np.zeros(kv.n)
    full[ev.first_index: ev.first_index + 3] = ev.values
    assert np.allclose(full, expected, atol=1e-14)


@pytest.mark.parametrize("p,spans,mult", [(1, 4, 1), (2, 3, 1), (3, 4, 1), (3, 3, 3), (4, 2, 2)])
def test_eval_basis_values_and_derivs_against_oracle(p, spans, mult):
    kv = make_open_knot_vector(p, spans, mult)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0, 1, 20):
        ev = eval_basis(kv, t, nders=min(2, p))
        for a in range(p + 1):
            i = ev.first_index + a
            assert ev.values[a] == pytest.approx(
                bspline_value_recursive(kv.knots, p, i, t), abs=1e-13
            )
            assert ev.ders[1, a] == pytest.approx(
                bspline_deriv_recursive(kv.knots, p, i, t), abs=1e-10, rel=1e-10
            )


def test_partition_of_unity_random_sample():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        spans = int(rng.integers(1, 9))
        mult = int(rng.integers(1, p + 1))
        kv = make_open_knot_vector(p, spans, mult)
        t = float(rng.uniform(0, 1))
        ev = eval_basis(kv, t, nders=1)
        assert abs(ev.values.sum() - 1.0) <= 1e-13
        assert abs(ev.ders[1].sum()) <= 1e-10
        assert np.all(ev.values >= -1e-15)


def test_local_support_is_exact():
    kv = make_open_knot_vector(3, 5, 1)
    pts = np.linspace(0, 1, 41)
    B = basis_matrix(kv, pts)
    for i in range(kv.n):
        lo, hi = kv.knots[i], kv.knots[i + 3 + 1]
        for k, t in enumerate(pts):
            inside = lo <= t <= hi
            if not inside:
                assert B[k, i] == 0.0


@pytest.mark.parametrize("p,spans", [(2, 4), (3, 5), (4, 3)])
def test_derivatives_match_finite_differences(p, spans):
    kv = make_open_knot_vector(p, spans, 1)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=kv.n)

    def f(t):
        ev = eval_basis(kv, t)
        return coeffs[ev.first_index: ev.first_index + p + 1] @ ev.values

    h = 1e-6
    for t in rng.uniform(0.05, 0.95, 30):
        # stay away from knots so the stencil does not straddle a breakpoint
        if np.min(np.abs(kv.breakpoints - t)) < 1e-3:
            continue
        ev = eval_basis(kv, t, nders=min(2, p))
        d1 = coeffs[ev.first_index: ev.first_index + p + 1] @ ev.ders[1]
        fd1 = (f(t + h) - f(t - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
        if p >= 2:
            d2 = coeffs[ev.first_index: ev.first_index + p + 1] @ ev.ders[2]
            fd2 = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-3)


def test_regularity_single_multiplicity_is_smooth():
    p = 3
    kv = make_open_knot_vector(p, 4, 1)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=kv.n)
    for knot in (0.25, 0.5, 0.75):
        left_span = find_span(kv, knot - 1e-9)
        right_span = find_span(kv, knot)
        lft = eval_basis(kv, knot, nders=p - 1, span=left_span)
        rgt = eval_basis(kv, knot, nders=p - 1, span=right_span)
        for k in range(p):  # value and first p-1 derivatives continuous
            a = coeffs[lft.first_index: lft.first_index + p + 1] @ lft.ders[k]
            b = coeffs[rgt.first_index: rgt.first_index + p + 1] @ rgt.ders[k]
            assert a == pytest.approx(b, abs=1e-9)


def test_regularity_full_multiplicity_kinks():
    p = 3
    kv = make_open_knot_vector(p, 2, p)
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=kv.n)
    knot = 0.5
    lft = eval_basis(kv, knot, nders=1, span=find_span(kv, knot - 1e-9))
    rgt = eval_basis(kv, knot, nders=1, span=find_span(kv, knot))
    val_l = coeffs[lft.first_index: lft.first_index + p + 1] @ lft.ders[0]
    val_r = coeffs[rgt.first_index: rgt.first_index + p + 1] @ rgt.ders[0]
    assert val_l == pytest.approx(val_r, abs=1e-12)  # C^0
    d_l = coeffs[lft.first_index: lft.first_index + p + 1] @ lft.ders[1]
    d_r = coeffs[rgt.first_index: rgt.first_index + p + 1] @ rgt.ders[1]
    assert abs(d_l - d_r) > 1e-3  # generic combination kinks


@pytest.mark.parametrize(
    "p,knots,expected",
    [
        (1, [0, 0, 0.5, 1, 1], [0, 0.5, 1]),
        (2, [0, 0, 0, 0.5, 1, 1, 1], [0, 0.25, 0.75, 1]),
        (3, [0, 0, 0, 0, 1, 1, 1, 1], [0, 1 / 3, 2 / 3, 1]),
    ],
)
def test_greville_abscissae(p, knots, expected):
    kv = KnotVector(p, np.array(knots, float))
    assert np.allclose(greville_abscissae(kv), expected, atol=1e-15)


def test_greville_strictly_increasing_up_to_full_multiplicity():
    for mult in (1, 2, 3):
        kv = make_open_knot_vector(3, 4, mult)
        g = greville_abscissae(kv)
        assert np.all(np.diff(g) > 0)


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 5), data=st.data())
def test_greville_abscissae_match_the_slice_means_bit_for_bit(p, data):
    # the sliding-window means against one slice mean per function, on
    # uniform and on random nonuniform knots of every multiplicity
    breaks = np.sort(data.draw(st.lists(st.floats(0.01, 0.99), max_size=12, unique=True)))
    mults = [data.draw(st.integers(1, p)) for _ in breaks]
    knots = np.concatenate([np.zeros(p + 1), np.repeat(breaks, mults), np.ones(p + 1)])
    m, r = data.draw(st.integers(1, 9)), data.draw(st.integers(1, p))
    for kv in (KnotVector(p, knots), make_open_knot_vector(p, m, r)):
        assert np.array_equal(greville_abscissae(kv), greville_loop(kv))


@pytest.mark.parametrize("p,mult", [(1, 1), (3, 1), (3, 3)])
def test_lattice_keeps_each_shared_element_edge_once(p, mult):
    # 4 m + 1 points per direction: the element lattices without the repeat
    # of each shared edge, which is the same float in both elements
    kv = make_open_knot_vector(p, 7, mult)
    per_element = _element_lattice(kv, 5)
    assert len(per_element) == 5 * 7 and len(kv.lattice.pts) == 4 * 7 + 1
    assert np.array_equal(kv.lattice.pts, np.unique(per_element))
    assert np.array_equal(kv.lattice.pts, lattice_points(kv, 5))
    assert np.all(np.diff(kv.lattice.pts) > 0)


def test_tensor_weights_reject_nonpositive():
    with pytest.raises(ValueError):
        TensorWeights(np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_weights_reject_non_finite(bad):
    # NaN passes a test for w <= 0, so finiteness is checked on its own
    with pytest.raises(ValueError, match="weights must be finite"):
        TensorWeights(np.array([[1.0, bad], [1.0, 1.0]]))


def _one_hot(kv_u, kv_v):
    """Coefficients that pick out every basis function: (n1, n2, n1 * n2)."""
    return np.eye(kv_u.n * kv_v.n).reshape(kv_u.n, kv_v.n, -1)


def test_nurbs_2d_unit_weights_degenerate_to_products():
    kv_u = make_open_knot_vector(2, 3, 1)
    kv_v = make_open_knot_vector(3, 2, 1)
    w = TensorWeights(np.ones((kv_u.n, kv_v.n)))
    pu = np.array([0.0, 0.37, 0.5, 1.0])
    pv = np.array([0.12, 0.81, 1.0])
    sums = rational_grid_sums(kv_u, kv_v, w, _one_hot(kv_u, kv_v), pu, pv, 2)
    for (a, b), vals in sums.items():
        expected = np.einsum(
            "ki,lj->klij", basis_matrix(kv_u, pu, a), basis_matrix(kv_v, pv, b)
        ).reshape(vals.shape)
        assert np.allclose(vals, expected, atol=1e-12), (a, b)


def test_nurbs_2d_partition_of_unity_random_weights():
    kv_u = make_open_knot_vector(3, 4, 1)
    kv_v = make_open_knot_vector(2, 5, 1)
    rng = np.random.default_rng(5)
    w = TensorWeights(rng.uniform(0.5, 2.0, size=(kv_u.n, kv_v.n)))
    pu, pv = rng.uniform(0, 1, size=(2, 10))
    sums = rational_grid_sums(kv_u, kv_v, w, _one_hot(kv_u, kv_v), pu, pv, 2)
    assert np.allclose(sums[0, 0].sum(axis=-1), 1.0, rtol=0, atol=1e-13)
    for ab in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert np.allclose(sums[ab].sum(axis=-1), 0.0, atol=1e-10), ab


def test_nurbs_2d_derivatives_match_finite_differences():
    # every (a, b) with a + b <= 2 under weights that vary in both directions:
    # first derivatives against central differences of the values, second
    # derivatives against central differences of the first derivatives
    kv_u = make_open_knot_vector(3, 3, 1)
    kv_v = make_open_knot_vector(2, 4, 1)
    rng = np.random.default_rng(11)
    w = TensorWeights(rng.uniform(0.5, 2.0, size=(kv_u.n, kv_v.n)))
    coeffs = _one_hot(kv_u, kv_v)
    h = 1e-6
    for u, v in rng.uniform(0.05, 0.95, size=(6, 2)):
        pu, pv = u + np.array([-h, 0.0, h]), v + np.array([-h, 0.0, h])
        sums = rational_grid_sums(kv_u, kv_v, w, coeffs, pu, pv, 2)

        def fd(ab, axis):
            f = sums[ab]
            if axis == 0:
                return (f[2, 1] - f[0, 1]) / (2 * h)
            return (f[1, 2] - f[1, 0]) / (2 * h)

        for (a, b), base, axis in [
            ((1, 0), (0, 0), 0),
            ((0, 1), (0, 0), 1),
            ((2, 0), (1, 0), 0),
            ((1, 1), (1, 0), 1),
            ((1, 1), (0, 1), 0),
            ((0, 2), (0, 1), 1),
        ]:
            exact = sums[a, b][1, 1]
            scale = np.abs(exact).max()
            assert np.allclose(exact, fd(base, axis), rtol=0, atol=1e-8 * scale), (a, b, axis)


def test_basis_matrix_rows_sum_to_one():
    kv = make_open_knot_vector(3, 6, 1)
    pts = np.linspace(0, 1, 23)
    B = basis_matrix(kv, pts)
    assert np.allclose(B.sum(axis=1), 1.0, atol=1e-13)
    D = basis_matrix(kv, pts, der=1)
    assert np.allclose(D.sum(axis=1), 0.0, atol=1e-10)


def _probe_points(kv, seed):
    """Random points, every knot with its repeats, and both ends."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0, 1, 25), kv.knots, [0.0, 1.0]])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_vectorised_span_lookup_matches_find_span(p):
    for mult in range(1, p + 1):
        kv = make_open_knot_vector(p, 4, mult)
        pts = _probe_points(kv, seed=p + 10 * mult)
        expected = [find_span(kv, float(t)) for t in pts]
        assert _find_spans(kv, pts).tolist() == expected


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_basis_matrix_matches_recursive_oracle(p):
    for mult in range(1, p + 1):
        kv = make_open_knot_vector(p, 4, mult)
        pts = _probe_points(kv, seed=p + 10 * mult)
        for der in range(p + 1):
            B = basis_matrix(kv, pts, der)
            expected = np.array(
                [[bspline_deriv_recursive(kv.knots, p, i, t, der) for i in range(kv.n)] for t in pts]
            )
            scale = max(1.0, np.abs(expected).max())
            assert np.allclose(B, expected, rtol=0.0, atol=1e-12 * scale), (mult, der)
