import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefall import (
    AsymmetricInput,
    OutsideValidity,
    RiemannComponents,
    SymmetryViolation,
    TidalMatrix,
    TraceNotZero,
    first_order_rate,
    proper_time_rate,
    validate_tidal,
)

# |sqrt(1+u) - (1+u/2)| at u=1e-3, from a 50-digit series evaluation
RATE_GAP_AT_1E3 = 1.2493753903517675e-07


def kulkarni_nomizu(h, k):
    """(h ^ k)_{abcd} = h_ac k_bd + h_bd k_ac - h_ad k_bc - h_bc k_ad.

    Carries all the algebraic symmetries of a curvature tensor, which makes
    it a convenient generator of valid random inputs.
    """
    return (np.einsum("ac,bd->abcd", h, k) + np.einsum("bd,ac->abcd", h, k)
            - np.einsum("ad,bc->abcd", h, k) - np.einsum("bc,ad->abcd", h, k))


def random_riemann(rng, scale=1e-4):
    h = rng.normal(size=(4, 4)) * scale
    k = rng.normal(size=(4, 4)) * scale
    return kulkarni_nomizu((h + h.T) / 2, (k + k.T) / 2)


class TestTidalMatrix:
    def test_symmetrized_storage(self):
        tm = TidalMatrix([[1e-4, 2e-5], [2e-5, -1e-4]])
        assert np.array_equal(tm.entries, tm.entries.T)
        assert tm.dim == 2

    def test_asymmetric_input_rejected(self):
        with pytest.raises(AsymmetricInput):
            TidalMatrix([[1e-4, 1e-5], [3e-5, -1e-4]])

    def test_vacuum_trace_guard(self):
        TidalMatrix(np.diag([-2e-4, 1e-4, 1e-4]), vacuum=True)
        with pytest.raises(TraceNotZero):
            TidalMatrix(np.diag([1e-4, 1e-4, 1e-4]), vacuum=True)


def epsilon_or_none(tidal, extent):
    """validate_tidal's epsilon, or None where it raises OutsideValidity."""
    try:
        return validate_tidal(tidal, extent)
    except OutsideValidity:
        return None


class TestValidateTidal:
    def test_zero_curvature(self):
        assert validate_tidal(TidalMatrix.zero(3), 10.0) == 0.0

    def test_vacuum_tracefree_ok(self):
        tm = TidalMatrix(np.diag([-2.0, 1.0, 1.0]) * 1e-4, vacuum=True)
        assert math.isclose(validate_tidal(tm, 10.0), 2e-2, rel_tol=1e-12)

    def test_vacuum_trace_violation(self):
        # the trace guard lives in TidalMatrix: a traced vacuum matrix never
        # reaches validate_tidal, and a non-vacuum one is not checked again
        traced = np.diag([1.0, 1.0, 1.0]) * 1e-4
        with pytest.raises(TraceNotZero):
            validate_tidal(TidalMatrix(traced, vacuum=True), 10.0)
        assert math.isclose(validate_tidal(TidalMatrix(traced), 10.0), 1e-2, rel_tol=1e-12)

    def test_not_ok_above_threshold(self):
        with pytest.raises(OutsideValidity,
                           match=r"^epsilon=4\.000e-01 exceeds weak-field threshold 0\.1$"):
            validate_tidal(TidalMatrix([[1e-3]]), 20.0)
        assert validate_tidal(TidalMatrix([[1e-4]]), 20.0) == pytest.approx(0.04, rel=1e-12)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            validate_tidal(TidalMatrix.zero(1), 0.0)

    @given(extents=st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
           r=st.floats(1e-8, 1e-2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_extent(self, extents, r):
        # growing the domain never turns a failing check into a passing one
        small, big = sorted(extents)
        tm = TidalMatrix([[r]])
        eps_small = epsilon_or_none(tm, small)
        eps_big = epsilon_or_none(tm, big)
        if eps_small is None:
            assert eps_big is None
        elif eps_big is not None:
            assert eps_big >= eps_small


class TestClockRates:
    def test_flat_rate_is_one(self):
        tm = TidalMatrix.zero(3)
        assert proper_time_rate([3.0, -1.0, 2.0], tm) == 1.0
        assert first_order_rate([3.0, -1.0, 2.0], tm) == 1.0

    def test_direct_instantiation(self):
        tm = TidalMatrix(np.diag([4e-4, 0.0, 0.0]))
        assert proper_time_rate([1.0, 0.0, 0.0], tm) == pytest.approx(
            math.sqrt(1.0004), abs=1e-15)

    def test_first_order_arithmetic(self):
        tm = TidalMatrix(np.diag([-2.0, 1.0, 1.0]) * 1e-4)
        assert first_order_rate([1.0, 1.0, 0.0], tm) == pytest.approx(0.99995, abs=1e-15)
        assert first_order_rate([0.0, 0.0, 0.0], tm) == 1.0

    def test_series_gap_frozen_value(self):
        # x.R.x = 1e-3 exactly; the exact-minus-truncated gap is u^2/8 to
        # leading order (1.25e-7), pinned by a high-precision evaluation
        tm = TidalMatrix([[1e-3]])
        gap = abs(proper_time_rate([1.0], tm) - first_order_rate([1.0], tm))
        assert gap == pytest.approx(RATE_GAP_AT_1E3, rel=1e-9)

    def test_outside_validity(self):
        tm = TidalMatrix([[-0.5]])
        with pytest.raises(OutsideValidity):
            proper_time_rate([2.0], tm)

    @given(x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           diag=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_rate_bounds(self, x, diag):
        # sqrt is concave, so the exact rate never exceeds its tangent-line
        # truncation, and the gap is bounded by u^2/2 for |u| <= 1/2
        tm = TidalMatrix(np.diag(diag))
        u = tm.quadratic_form(x)
        if abs(u) > 0.5 or 1.0 + u <= 0.0:
            return
        exact = proper_time_rate(x, tm)
        first = first_order_rate(x, tm)
        assert exact <= first + 1e-15
        assert abs(exact - first) <= u * u / 2.0 + 1e-15


class TestRiemann:
    def test_zero_is_valid(self):
        RiemannComponents.zero()

    def test_kn_products_are_valid(self, rng):
        for _ in range(20):
            RiemannComponents(random_riemann(rng))

    def test_symmetry_violation_detected(self, rng):
        bad = random_riemann(rng)
        bad[0, 1, 0, 1] += 1e-6  # breaks antisymmetry partners
        with pytest.raises(SymmetryViolation):
            RiemannComponents(bad)

    def test_bianchi_violation_detected(self):
        r = np.zeros((4, 4, 4, 4))
        # antisymmetric in both pairs and pair-exchange symmetric, but the
        # cyclic sum over the last three indices does not vanish
        for (a, b, c, d), v in (((0, 1, 2, 3), 1.0), ((0, 2, 3, 1), 1.0),
                                ((0, 3, 1, 2), 1.0)):
            r[a, b, c, d] = v
            r[b, a, c, d] = -v
            r[a, b, d, c] = -v
            r[b, a, d, c] = v
            r[c, d, a, b] = v
            r[d, c, a, b] = -v
            r[c, d, b, a] = -v
            r[d, c, b, a] = v
        with pytest.raises(SymmetryViolation):
            RiemannComponents(r)
