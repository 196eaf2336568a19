"""The ppwave_example model against its kept two-callable form.

`lagrangian._default_ppwave_example` evaluates its Randers coefficients
from one function, so the bump and sin(u) are composed once per
evaluation, and its omega divides by alpha through the reciprocal that
the jet keeps.  `helpers.two_callable_ppwave_example` composes each of
them afresh; every quantity here must keep its bits.
"""

import numpy as np
import pytest

import console_cases
from finsler import jets
from finsler.connection import _spray
from finsler.curvature import chern_curvature
from finsler.errors import ConstructionError
from finsler.jets import Jet
from finsler.lagrangian import RandersNorm, _default_ppwave_example
from finsler.tensors import cartan_tensor, fundamental_tensor
from helpers import two_callable_ppwave_example

NEW = _default_ppwave_example()
OLD = two_callable_ppwave_example()
N_WAVE = np.array([1.0, 0.0, 0.0, 0.0])


def states(rows, seed):
    """``rows`` points x and vectors v near the cone reference."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.8, 0.8, (rows, 4))
    vs = np.array([NEW.cone_ref_at(x) for x in xs])
    return xs, vs + 0.2 * rng.standard_normal((rows, 4))


def test_value_keeps_its_bits_on_floats_and_on_a_stack():
    xs, vs = states(40, 3)
    for x, v in zip(xs, vs):
        assert NEW.value(x, v) == OLD.value(x, v)
    # 40 rows are more than one lane block
    assert len(xs) > jets.LANE_BLOCK
    assert NEW.value(xs, vs).tobytes() == OLD.value(xs, vs).tobytes()
    assert NEW.value(xs[0], vs).tobytes() == OLD.value(xs[0], vs).tobytes()


def test_stacked_tensors_keep_their_bits():
    xs, vs = states(5, 5)
    for model_tensor, read in ((fundamental_tensor, "matrix"),
                               (cartan_tensor, "coeffs")):
        got = getattr(model_tensor(NEW, xs, vs), read)
        want = getattr(model_tensor(OLD, xs, vs), read)
        assert got.tobytes() == want.tobytes()


def test_the_spray_keeps_its_bits():
    xs, vs = states(6, 11)
    new, old = _spray(NEW), _spray(OLD)
    for y in np.concatenate([xs, vs], axis=1):
        assert new(y).tobytes() == old(y).tobytes()


def test_chern_curvature_keeps_its_bits():
    rng = np.random.default_rng(17)
    for x in rng.uniform(-0.6, 0.6, (3, 4)):
        got = chern_curvature(NEW, x, N_WAVE)
        want = chern_curvature(OLD, x, N_WAVE)
        assert got.components.tobytes() == want.components.tobytes()


def test_the_eps_50_row_prints_the_same_stderr():
    # the same row on the kept model, loaded as a plug-in
    row = console_cases.load()["geodesic-eps-50"]
    kept = {**row, "config": {
        **row["config"],
        "spacetime": {"type": "plugin", "params": {
            "module": "helpers", "builder": "two_callable_ppwave_example",
            "eps": 50}}}}
    got = console_cases.run_in_process(row)
    want = console_cases.run_in_process(kept)
    assert got.code == want.code == 3
    assert got.err == want.err


def spray_work(L, monkeypatch):
    """Jet products and `Jet._series` compositions, by series, of one
    spray call at a seeded state."""
    products, series = [], []
    pairs = jets._Context.product_pairs
    compose = Jet._series

    def counted_pairs(ctx, mask_a, mask_b):
        products.append(1)
        return pairs(ctx, mask_a, mask_b)

    def counted_series(self, coeffs):
        series.append(coeffs)
        return compose(self, coeffs)

    spray = _spray(L)
    xs, vs = states(1, 23)
    monkeypatch.setattr(jets._Context, "product_pairs", counted_pairs)
    monkeypatch.setattr(Jet, "_series", counted_series)
    spray(np.concatenate([xs[0], vs[0]]))
    names = {jets._exp_series: "exp", jets._sin_series: "sin",
             jets._cos_series: "cos", jets._sqrt_series: "sqrt",
             jets._reciprocal_series: "reciprocal"}
    counts = {}
    for coeffs in series:
        counts[names[coeffs]] = counts.get(names[coeffs], 0) + 1
    return len(products), counts


@pytest.mark.parametrize("model,products,counts", [
    pytest.param(NEW, 29, {"exp": 1, "sin": 1, "cos": 2, "sqrt": 2,
                           "reciprocal": 2}, id="one-coefficient-function"),
    pytest.param(OLD, 31, {"exp": 2, "sin": 2, "cos": 2, "sqrt": 2,
                           "reciprocal": 4}, id="two-callables"),
])
def test_one_spray_call_composes_each_shared_factor_once(
        monkeypatch, model, products, counts):
    # the bump and sin(u) once, alpha's reciprocal once for its three
    # divisions and F0's once
    assert spray_work(model, monkeypatch) == (products, counts)


# -- the Randers coefficient forms -----------------------------------------

def test_randers_coefficients_build_in_every_form():
    A, b = np.diag([1.0, 2.0]), np.array([0.1, -0.2])
    x, v = [0.0, 0.3], [0.7, -0.4]
    forms = [RandersNorm(A, b, 2),
             RandersNorm(A, lambda x: b, 2),
             RandersNorm(lambda x: A, b, 2),
             RandersNorm(lambda x: A, lambda x: b, 2),
             RandersNorm.from_joint(lambda x: (A, b), 2)]
    values = {float(F(x, v)) for F in forms}
    assert len(values) == 1
    for F in forms:
        got_A, got_b = F.coeffs(x)
        assert np.array_equal(got_A, A) and np.array_equal(got_b, b)
    with pytest.raises(ConstructionError):
        RandersNorm.from_joint(A, 2)


def drifting(x):
    """A b(x) of jet-evaluable entries, as a model's drift is."""
    return [0.1 * jets.sin(x[0]), -0.2 * x[1] * x[1]]


def test_a_mixed_randers_norm_gives_the_bits_of_the_two_callable_one():
    # a constant A with a callable b, and the reverse, evaluate as the
    # two-callable form does, on floats and on jets in x and v
    A = np.array([[1.0, 0.2], [0.2, 2.0]])
    rng = np.random.default_rng(13)
    for mixed, both in (
            (RandersNorm(A, drifting, 2),
             RandersNorm(lambda x: A, drifting, 2)),
            (RandersNorm(lambda x: A, np.array([0.1, -0.2]), 2),
             RandersNorm(lambda x: A, lambda x: np.array([0.1, -0.2]), 2))):
        for x, v in zip(rng.uniform(-0.5, 0.5, (3, 2)),
                        rng.uniform(0.5, 1.0, (3, 2))):
            assert float(mixed(x, v)) == float(both(x, v))
            _, xv = jets.variables(np.concatenate([x, v]), 2)
            got, want = mixed(xv[:2], xv[2:]), both(xv[:2], xv[2:])
            assert got.c.tobytes() == want.c.tobytes()


def test_an_indefinite_constant_a_is_refused_in_every_form():
    A = np.diag([1.0, -1.0])
    for b in (np.zeros(2), lambda x: np.zeros(2), drifting):
        with pytest.raises(ConstructionError, match="positive definite"):
            RandersNorm(A, b, 2)
