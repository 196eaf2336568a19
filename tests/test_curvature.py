"""Curvature tests: frozen wave-model components and classical oracles.

The frozen values come from differentiating the hand Christoffel tables in
test_connection by hand; the cross-checks rebuild the Riemann tensor from
independent symbol routes (direct entry differentiation for quadratic
models, the Cartan-free classical symbols for the metric field g_N).
"""

import numpy as np
import pytest

from finsler import connection, curvature, fixtures, jets, ppwave
from finsler.connection import (
    VectorField,
    _field_jet,
    christoffel,
    levi_civita_quadratic,
    parallel_extension,
)
from finsler.curvature import chern_curvature, nperp_basis, ppwave_condition
from finsler.lagrangian import (
    PROFILES,
    QuadraticLagrangian,
    _default_parallel_example,
    _default_ppwave_example,
    build_brinkmann_quadratic,
    build_minkowski,
    catalog,
)

from helpers import pullback

RNG = np.random.default_rng(41)

N_WAVE = np.array([1.0, 0.0, 0.0, 0.0])


def rosen_u_first():
    """L = 2 v0 v1 - cos(x0)^2 (v2)^2 - (v3)^2: the ray parameter comes
    first, the parallel lightlike direction is e1."""
    entries = {
        (0, 1): 1.0,
        (2, 2): lambda x: -jets.cos(x[0]) * jets.cos(x[0]),
        (3, 3): -1.0,
    }
    return QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0],
                               name="rosen-cos2")


def cosh_control():
    """Parallel lightlike e0 but transverse curvature: not a pp-wave."""
    def h22(x):
        c = jets.cosh(x[2])
        return -c * c

    def h33(x):
        c = jets.cosh(x[2])
        return -c * c

    return QuadraticLagrangian({(0, 1): 1.0, (2, 2): h22, (3, 3): h33},
                               4, [1.0, 1.0, 0.0, 0.0], name="cosh-control")


def assemble_riemann(gamma0, dgamma):
    """R^l_ijk from symbols and their derivatives (same index layout)."""
    term1 = np.transpose(dgamma, (1, 0, 2, 3))
    term2 = np.transpose(dgamma, (1, 2, 0, 3))
    quad1 = np.einsum("lim,mjk->lijk", gamma0, gamma0)
    quad2 = np.einsum("ljm,mik->lijk", gamma0, gamma0)
    return term1 - term2 + quad1 - quad2


def fd_riemann(symbol_fn, x, h0=6e-6):
    """Riemann tensor by Richardson central differences of any symbol field."""
    n = len(x)
    dgamma = np.zeros((n, n, n, n))
    for a in range(n):
        h = h0 * (1.0 + abs(x[a]))

        def central(hh):
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp[a] += hh
            xm[a] -= hh
            return (symbol_fn(xp) - symbol_fn(xm)) / (2.0 * hh)

        dgamma[a] = (4.0 * central(h) - central(2.0 * h)) / 3.0
    return assemble_riemann(symbol_fn(np.array(x, dtype=float)), dgamma)


# -- frozen components -----------------------------------------------------

def test_flat_models_have_exactly_zero_curvature():
    for L in (build_minkowski(), build_brinkmann_quadratic("zero")):
        R = chern_curvature(L, np.array([0.1, -0.2, 0.3, 0.4]), N_WAVE)
        assert np.max(np.abs(R.components)) == 0.0


def test_brinkmann_x2_frozen_components():
    # H = x^2: R(dx,du)du = +dx and R(dx,du)dx = +dv, H_xx/2 = 1
    L = build_brinkmann_quadratic("x2")
    R = chern_curvature(L, np.array([0.3, 1.2, 1.5, -0.7]), N_WAVE)
    assert R.components[2, 2, 1, 1] == pytest.approx(1.0, abs=1e-12)
    assert R.components[0, 2, 1, 2] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones((4, 4, 4, 4), dtype=bool)
    for (l, i, j, k) in [(2, 2, 1, 1), (2, 1, 2, 1), (0, 2, 1, 2),
                         (0, 1, 2, 2), (0, 2, 1, 1)]:
        mask[l, i, j, k] = False
        mask[l, j, i, k] = False
    assert np.max(np.abs(R.components[mask])) <= 1e-12


def test_brinkmann_saddle_profile_transverse_blocks():
    # H = x^2 - y^2: the cross blocks vanish and the oscillator signs split
    L = build_brinkmann_quadratic("x2-y2")
    R = chern_curvature(L, np.array([0.0, -0.4, 0.8, 0.6]), N_WAVE)
    assert np.max(np.abs(R.components[:, 2, 3, 2])) <= 1e-12
    assert np.max(np.abs(R.components[:, 2, 3, 1])) <= 1e-12
    assert R.components[2, 2, 1, 1] == pytest.approx(1.0, abs=1e-12)
    assert R.components[3, 3, 1, 1] == pytest.approx(-1.0, abs=1e-12)


def test_rosen_cos2_frozen_components():
    # h2 = cos^2(x0): R^2_200 = sec^2 - tan^2 = 1 for every ray parameter
    L = rosen_u_first()
    for t in (0.0, 0.5, 1.2):
        x = np.array([t, 0.3, 0.1, -0.2])
        R = chern_curvature(L, x, np.array([1.0, 1.0, 0.0, 0.0]))
        assert R.components[2, 2, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert R.components[1, 2, 0, 2] == pytest.approx(np.cos(t) ** 2,
                                                         abs=1e-12)


# -- classical oracles ------------------------------------------------------

def brinkmann_riemann(profile, x):
    """Closed-form R^l_ijk of a quadratic wave: `brinkmann_oracle`'s symbols
    are H's first partials over two, so their x-derivatives are H's second
    partials over two, placed in the same slots."""
    gamma = ppwave.brinkmann_oracle(profile)(x)
    _, uxy = jets.variables(x[1:], 2)
    hess = jets.derivative_tensor(PROFILES[profile](*uxy), range(3), 2)
    dgamma = np.zeros((4, 4, 4, 4))     # dgamma[a, l, i, j] = d_a G^l_ij
    for a in range(1, 4):
        hu, hx, hy = 0.5 * hess[a - 1]
        dgamma[a, 0, 1, 1] = hu
        dgamma[a, 0, 1, 2] = dgamma[a, 0, 2, 1] = hx
        dgamma[a, 0, 1, 3] = dgamma[a, 0, 3, 1] = hy
        dgamma[a, 2, 1, 1] = hx
        dgamma[a, 3, 1, 1] = hy
    return assemble_riemann(gamma, dgamma)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_brinkmann_curvature_matches_closed_form(profile):
    L = build_brinkmann_quadratic(profile)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, 4)
        R = chern_curvature(L, x, N_WAVE)
        assert np.max(np.abs(R.components
                             - brinkmann_riemann(profile, x))) <= 1e-12


def test_quadratic_curvature_matches_entry_route_riemann():
    # chern_curvature differentiates the Koszul symbols; the oracle
    # differentiates the direct Levi-Civita entries instead
    for L in (build_brinkmann_quadratic("uxy"), rosen_u_first()):
        x = RNG.uniform(-0.6, 0.6, 4)
        R = chern_curvature(L, x, np.array([1.0, 1.0, 0.1, 0.0]))
        oracle = fd_riemann(lambda y: levi_civita_quadratic(L, y), x)
        assert np.max(np.abs(R.components - oracle)) <= 1e-6


def test_parallel_reference_equals_metric_field_riemann():
    # with N parallel the tensor reduces to the Riemann tensor of the
    # plain metric field x -> g_N(x); classical symbols drop the Cartan
    # correction entirely, an independent route
    L = _default_ppwave_example()
    x = np.array([0.05, 0.3, -0.15, 0.1])

    def classical_symbols(y):
        g, _, D = _field_jet(L, y, N_WAVE, np.zeros((4, 4)))
        rhs = D + np.swapaxes(D, 0, 1) - np.transpose(D, (1, 2, 0))
        return 0.5 * np.einsum("lk,ijk->lij", np.linalg.inv(g), rhs)

    R = chern_curvature(L, x, N_WAVE)
    oracle = fd_riemann(classical_symbols, x)
    assert np.max(np.abs(R.components - oracle)) <= 1e-6


def test_nonparallel_reference_equals_fd_riemann_of_its_extension():
    # at cone_ref the Cartan terms of ∂Γ do not vanish, as they do at the
    # parallel N: differences of the symbols along the linear extension
    # with vanishing covariant derivative at x must see them
    L = _default_ppwave_example()
    for x in np.random.default_rng(17).uniform(-0.3, 0.3, (3, 4)):
        v = L.cone_ref_at(x)
        V = VectorField.linear(
            v, x, -np.einsum("kij,j->ik",
                             christoffel(L, VectorField.constant(v), x).gamma,
                             v))
        R = chern_curvature(L, x, v, extension=V)
        oracle = fd_riemann(lambda y: christoffel(L, V, y).gamma, x)
        assert np.max(np.abs(R.components - oracle)) <= 1e-9 * max(1.0,
                                                                    R.scale)


# -- invariants -------------------------------------------------------------

@pytest.mark.parametrize("extended,solves", [(False, 1), (True, 0)])
def test_christoffel_solves_per_curvature_call(monkeypatch, extended,
                                               solves):
    # the only solve is the gated one that builds the parallel extension
    L = _default_ppwave_example()
    x = np.array([0.05, 0.3, -0.15, 0.1])
    ext = parallel_extension(L, N_WAVE, x) if extended else None
    calls = []
    table = connection._table

    def counting(*args, gate=False):
        calls.append(gate)
        return table(*args, gate=gate)

    monkeypatch.setattr(connection, "_table", counting)
    monkeypatch.setattr(curvature, "_table", counting)
    chern_curvature(L, x, N_WAVE, extension=ext)
    assert calls == [True] * solves


def test_a_stacked_curvature_has_each_points_bits():
    # one v for every point, or one per point; each result has the bits
    # of the point's curvature along its own parallel extension, over
    # more points than one lane block
    L = _default_ppwave_example()
    xs = np.random.default_rng(8).uniform(-0.6, 0.6,
                                          (jets.LANE_BLOCK + 2, 4))
    vs = np.array([L.cone_ref_at(x) for x in xs])
    for v in (N_WAVE, vs):
        got = chern_curvature(L, xs, v)
        assert len(got) == len(xs)
        for x, w, R in zip(xs, np.broadcast_to(v, xs.shape), got):
            want = chern_curvature(L, x, w,
                                   extension=parallel_extension(L, w, x))
            for name in ("components", "g", "gamma"):
                assert (getattr(R, name).tobytes()
                        == getattr(want, name).tobytes())
    # one point gives one result, not a list
    one = chern_curvature(L, xs[-1], vs[-1])
    assert one.components.tobytes() == got[-1].components.tobytes()


STACKED = {
    "ppwave_example": _default_ppwave_example,
    "parallel_example": _default_parallel_example,
    "brinkmann-uxy": lambda: build_brinkmann_quadratic("uxy"),
    "rosen_cross": fixtures.rosen_cross,
}


@pytest.mark.parametrize("size", [0, 1, 2, 5, jets.LANE_BLOCK + 1])
@pytest.mark.parametrize("name", sorted(STACKED))
def test_a_stack_is_bitwise_its_points_curvatures(name, size):
    # at the parallel N and at the cone reference, where the Cartan terms
    # of the derivative solve do not vanish; a stack of one point is that
    # point's unstacked kernel, and no points give no curvatures
    L = STACKED[name]()
    xs = np.random.default_rng([size, 7]).uniform(-0.5, 0.5, (size, 4))
    for vs in (np.broadcast_to(N_WAVE, xs.shape), L.cone_ref_at(xs)):
        got = chern_curvature(L, xs, vs)
        assert len(got) == size
        for x, v, R in zip(xs, vs, got):
            want = chern_curvature(L, x, v)
            for part in ("components", "g", "gamma"):
                assert np.array_equal(getattr(R, part), getattr(want, part))


def test_curvature_is_a_tensor_under_an_affine_chart():
    # x' = P x + c maps R as a (1, 3) tensor.  At the cone reference the
    # Cartan term of ∂Γ sees the extension's Jacobian J, and a generic P
    # makes J far from symmetric, so a transposed J breaks the law
    L = _default_ppwave_example()
    rng = np.random.default_rng(14)
    P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    assert np.linalg.cond(P) < 10.0
    c = rng.uniform(-0.2, 0.2, 4)
    Q = np.linalg.inv(P)
    xs = rng.uniform(-0.3, 0.3, (3, 4))
    vs = L.cone_ref_at(xs)
    here = chern_curvature(L, xs, vs)
    there = chern_curvature(pullback(L, P, c), xs @ P.T + c, vs @ P.T)
    for R, Rp in zip(here, there):
        law = np.einsum("la,abcd,bi,cj,dk->lijk", P, R.components, Q, Q, Q)
        scale = max(1.0, float(np.max(np.abs(law))))
        assert np.max(np.abs(Rp.components - law)) <= 1e-12 * scale
        assert np.allclose(Rp.g, Q.T @ R.g @ Q, rtol=0.0, atol=1e-13)


def test_curvature_product_terms_are_pinned(monkeypatch):
    # one chern_curvature makes 68 jet products: a series of a jet of
    # base-point generators composes only to the base order, and a jet's
    # reciprocal is composed once however often it divides.  The support
    # masks cut the terms they sum from the full tables' 133,740 to
    # 45,632, so a lost mask, degree cap or kept reciprocal shows here
    # and not only as a timing
    L = _default_ppwave_example()
    full_table = jets._Context.product_pairs
    products, terms, dense = [], [], []

    def counting(ctx, mask_a, mask_b):
        i, j, k = full_table(ctx, mask_a, mask_b)
        products.append((mask_a, mask_b))
        terms.append(len(k))
        dense.append(len(ctx.pairs[2]))
        return i, j, k

    monkeypatch.setattr(jets._Context, "product_pairs", counting)
    chern_curvature(L, np.array([0.3, 0.2, -0.1, 0.4]), N_WAVE)
    assert len(products) == 68
    assert sum(dense) == 133740
    assert sum(terms) == 45632
    # a block of two lanes makes the same products, each of its terms
    # once per lane
    del products[:], terms[:], dense[:]
    chern_curvature(L, np.array([[0.3, 0.2, -0.1, 0.4],
                                 [-0.2, 0.1, 0.3, -0.3]]), N_WAVE)
    assert (len(products), sum(dense), sum(terms)) == (68, 267480, 91264)


def test_antisymmetry_exact_in_the_first_pair():
    L = _default_ppwave_example()
    x = np.array([0.0, 0.25, 0.1, -0.2])
    R = chern_curvature(L, x, np.asarray(L.cone_ref_at(x)))
    assert np.max(np.abs(R.components
                         + np.swapaxes(R.components, 1, 2))) == 0.0


def test_pair_symmetry_for_parallel_reference():
    for L in (build_brinkmann_quadratic("uxy"), _default_ppwave_example()):
        x = np.array([0.3, 0.6, 0.4, -0.5])
        R = chern_curvature(L, x, N_WAVE)
        rm = np.einsum("lijk,lm->ijkm", R.components, R.g)
        assert np.max(np.abs(rm - np.transpose(rm, (2, 3, 0, 1)))) <= 1e-12


def test_extension_independence():
    # a second pointwise-parallel extension with quadratic corrections
    L = _default_ppwave_example()
    p = np.array([0.05, 0.3, -0.15, 0.1])
    v = np.asarray(L.cone_ref_at(p))
    base = chern_curvature(L, p, v)

    table = christoffel(L, VectorField.constant(v), p)
    B = -np.einsum("kij,j->ik", table.gamma, v)
    Q = 0.3 * RNG.normal(size=(4, 4, 4))
    Q = Q + np.swapaxes(Q, 1, 2)

    def ev(x):
        dx = [x[i] - p[i] for i in range(4)]
        out = []
        for k in range(4):
            s = v[k]
            for i in range(4):
                s = s + B[i, k] * dx[i]
            for a in range(4):
                for b in range(4):
                    s = s + Q[k, a, b] * dx[a] * dx[b]
            out.append(s)
        return out

    other = chern_curvature(L, p, v, extension=VectorField(ev))
    scale = max(1.0, base.scale)
    assert np.max(np.abs(other.components - base.components)) <= 1e-6 * scale


def test_curvature_applies_and_rm_contraction():
    L = build_brinkmann_quadratic("x2")
    x = np.array([0.0, 0.0, 1.0, 0.0])
    R = chern_curvature(L, x, N_WAVE)
    vec = R.apply([0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 0, 0])
    assert vec[2] == pytest.approx(1.0, abs=1e-12)
    # Rm(dx,du,du,dx) = g(R(dx,du)du, dx) = -1 with the transverse sign
    assert R.rm([0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 0, 0],
                [0, 0, 1, 0]) == pytest.approx(-1.0, abs=1e-12)


# -- the pp-wave condition ---------------------------------------------------

def sample_points():
    return [np.array([0.0, 0.2, 0.4, -0.3]), np.array([0.1, -0.5, 0.2, 0.6])]


def test_nperp_basis_spans_the_orthogonal_complement():
    L = build_brinkmann_quadratic("x2")
    x = sample_points()[0]
    tab = christoffel(L, VectorField.constant(N_WAVE), x)
    basis = nperp_basis(tab.g, N_WAVE)
    assert basis.shape == (3, 4)
    assert np.allclose(basis[0], N_WAVE)
    for b in basis:
        assert abs(b @ (tab.g @ N_WAVE)) <= 1e-12


@pytest.mark.parametrize("name", ["brinkmann-zero", "brinkmann-x2",
                                  "brinkmann-x2-y2", "brinkmann-uxy"])
def test_ppwave_condition_passes_on_wave_models(name):
    rep = ppwave_condition(catalog()[name], N_WAVE, sample_points())
    assert rep.passed


def test_ppwave_condition_passes_on_finsler_example():
    rep = ppwave_condition(_default_ppwave_example(), N_WAVE, sample_points())
    assert rep.passed
    assert rep.meta["curvature_scale"] > 0.0


def test_ppwave_condition_fails_on_transverse_curvature():
    rep = ppwave_condition(cosh_control(), N_WAVE, sample_points())
    assert not rep.passed
    worst = max(c.residual for c in rep.checks
                if c.name.endswith("curvature condition"))
    assert worst > 1e-3 * rep.meta["curvature_scale"]
    # the preconditions themselves hold: only the curvature checks fail
    for c in rep.checks:
        if not c.name.endswith("curvature condition"):
            assert c.passed


def test_ppwave_condition_reports_nonparallel_reference():
    # e0 in the u-first Rosen chart is lightlike and geodesic but not
    # parallel: h depends on the ray parameter
    rep = ppwave_condition(rosen_u_first(), N_WAVE,
                           [np.array([0.4, 0.0, 0.2, 0.1])])
    assert not rep.passed
    verdicts = {c.name: c.passed for c in rep.checks}
    assert verdicts["sample 0: N lightlike"]
    assert not verdicts["sample 0: nabla N"]


def test_ppwave_condition_reports_nonlightlike_reference():
    rep = ppwave_condition(build_minkowski(), np.array([1.0, 0.5, 0.0, 0.0]),
                           [np.zeros(4)])
    verdicts = {c.name: c.passed for c in rep.checks}
    assert not verdicts["sample 0: N lightlike"]


def test_ppwave_condition_report_serializes_sample_table():
    rep = ppwave_condition(build_brinkmann_quadratic("x2"), N_WAVE,
                           sample_points())
    d = rep.to_dict()
    assert d["report"] == "ppwave-condition"
    assert len(d["meta"]["samples"]) == 2
    for row in d["meta"]["samples"]:
        assert set(row) == {"x"}
