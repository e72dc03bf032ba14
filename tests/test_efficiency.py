"""Stationary points and shape guarantees of the efficiency curves."""

import math

import mpmath
import numpy as np
import pytest
import scipy.optimize

import specgame.efficiency

from specgame import (
    ConfigError,
    ExponentialEfficiency,
    RationalSigmoidEfficiency,
    SolverFailure,
    solve_beta_star,
    solve_gamma_star,
)
from support import ScaledExponentialEfficiency

# Plateau of the rational-sigmoid curve, (7 + sqrt(17)) / 4.
RS_PLATEAU = (7.0 + math.sqrt(17.0)) / 4.0


def brentq_gamma_star(model, lo, hi):
    """Independent root of x f'(x) = f(x) via scipy on the generic residual."""
    return scipy.optimize.brentq(
        lambda x: x * model.derivative(x) - model.value(x),
        lo,
        hi,
        xtol=1e-15,
        rtol=8.9e-16,
    )


class TestExponentialValue:
    def test_matches_definition(self):
        m = ExponentialEfficiency(M=100)
        for x in (0.0, 0.3, 1.0, 6.4, 25.0):
            assert m.value(x) == pytest.approx((1.0 - math.exp(-x)) ** 100, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        m = ExponentialEfficiency(M=7)
        xs = np.array([0.0, 0.1, 1.0, 4.0, 30.0])
        vec = m.value(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert m.value(float(x)) == v

    def test_derivative_matches_numeric(self):
        m = ExponentialEfficiency(M=100)
        for x in (0.5, 2.0, 6.4746, 12.0):
            h = 1e-5 * x
            numeric = (m.value(x + h) - m.value(x - h)) / (2.0 * h)
            assert m.derivative(x) == pytest.approx(numeric, rel=2e-6)

    def test_monotone_and_saturating(self):
        m = ExponentialEfficiency(M=100)
        xs = np.linspace(0.0, 60.0, 4001)
        fs = m.value(xs)
        assert fs[0] == 0.0
        assert np.all(np.diff(fs) >= 0.0)
        assert fs[-1] == pytest.approx(1.0, abs=1e-15)

    def test_bad_block_length_rejected(self):
        for bad in (1, 0, -3, 2.5, True):
            with pytest.raises(ConfigError):
                ExponentialEfficiency(M=bad)


class TestValueEach:
    MODELS = {
        "exponential_M100": ExponentialEfficiency(M=100),
        "exponential_M2": ExponentialEfficiency(M=2),
        "rational_sigmoid": RationalSigmoidEfficiency(),
        "base_class_loop": ScaledExponentialEfficiency(),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_bitwise_equals_scalar_value(self, name):
        # the batched solvers rely on this to reproduce the scalar path's bytes
        model = self.MODELS[name]
        x = np.geomspace(1e-6, 50.0, 20_000)
        expected = np.array([model.value(float(v)) for v in x])
        got = model.value_each(x)
        assert got.shape == x.shape
        assert got.tobytes() == expected.tobytes()


class TestGammaStar:
    def test_m100_value(self):
        m = ExponentialEfficiency(M=100)
        assert m.gamma_star == pytest.approx(6.474600379589404, rel=1e-12)

    def test_m100_matches_independent_root(self):
        m = ExponentialEfficiency(M=100)
        oracle = brentq_gamma_star(m, 1.0, 20.0)
        assert m.gamma_star == pytest.approx(oracle, rel=1e-10)

    def test_m100_in_expected_window(self):
        gs = ExponentialEfficiency(M=100).gamma_star
        assert 6.3 < gs < 6.5
        assert 8.0 < 10.0 * math.log10(gs) < 8.2

    def test_m2_matches_independent_root(self):
        m = ExponentialEfficiency(M=2)
        oracle = brentq_gamma_star(m, 0.1, 10.0)
        assert m.gamma_star == pytest.approx(1.2564312086261213, rel=1e-12)
        assert m.gamma_star == pytest.approx(oracle, rel=1e-10)

    def test_reduced_residual_vanishes_at_root(self):
        for M in (2, 10, 100):
            m = ExponentialEfficiency(M=M)
            gs = m.gamma_star
            assert abs(M * gs - math.expm1(gs)) <= 1e-9 * M * gs
            assert abs(gs * m.derivative(gs) - m.value(gs)) <= 1e-9

    def test_root_is_the_per_watt_peak(self):
        m = ExponentialEfficiency(M=100)
        gs = m.gamma_star
        xs = np.geomspace(gs / 100.0, gs * 100.0, 20001)
        grid_peak = np.max(m.value(xs) / xs)
        assert m.value(gs) / gs >= grid_peak * (1.0 - 1e-6)

    def test_cached(self):
        m = ExponentialEfficiency(M=100)
        assert m.gamma_star is m.gamma_star

    def test_scaled_double_below_one(self):
        m = ScaledExponentialEfficiency()
        oracle = brentq_gamma_star(m, 0.1, 5.0)
        assert m.gamma_star == pytest.approx(oracle, rel=1e-10)
        assert 0.0 < m.gamma_star < 1.0

    def test_no_root_in_bracket_raises(self):
        with pytest.raises(SolverFailure):
            solve_gamma_star(ExponentialEfficiency(M=100), bracket=(20.0, 50.0))


class TestRationalSigmoid:
    def test_gamma_star_is_one(self):
        assert RationalSigmoidEfficiency().gamma_star == pytest.approx(1.0, abs=1e-9)

    def test_low_branch_matches_closed_form(self):
        m = RationalSigmoidEfficiency()
        for x in (0.1, 0.4, 0.7, 0.75):
            assert m.value(x) == pytest.approx(1.0 / math.sqrt(1.0 - x) - 1.0, rel=1e-12)

    def test_low_branch_keeps_relative_precision_near_zero(self):
        # naive 1/sqrt(1-x) - 1 loses ~8 digits here; the curve must not
        x = 1e-8
        series = 0.5 * x + 0.375 * x * x
        assert RationalSigmoidEfficiency().value(x) == pytest.approx(series, rel=1e-12)

    def test_derivative_at_zero(self):
        assert RationalSigmoidEfficiency().derivative(0.0) == 0.5

    def test_continuous_at_knee(self):
        m = RationalSigmoidEfficiency()
        eps = 1e-9
        assert m.value(0.75) == pytest.approx(1.0, abs=1e-12)
        assert m.value(0.75 + eps) == pytest.approx(m.value(0.75 - eps), abs=1e-7)
        assert m.derivative(0.75 + eps) == pytest.approx(m.derivative(0.75 - eps), rel=1e-6)

    def test_saturates_at_plateau(self):
        m = RationalSigmoidEfficiency()
        assert m.value(1e9) == pytest.approx(RS_PLATEAU, abs=1e-6)
        xs = np.linspace(0.0, 50.0, 2001)
        fs = m.value(xs)
        assert np.all(np.diff(fs) > 0.0)
        assert np.all(fs < RS_PLATEAU)

    def test_value_at_one(self):
        assert RationalSigmoidEfficiency().value(1.0) == pytest.approx(
            1.640388203202208, rel=1e-12
        )

    def test_no_shared_carrier_root(self):
        m = RationalSigmoidEfficiency()
        assert solve_beta_star(m, 0.75) is None
        assert solve_beta_star(m, 0.999) is None


class TestBetaStar:
    def brentq_beta_star(self, M, lo, hi):
        m = ExponentialEfficiency(M=M)
        gs = m.gamma_star
        return scipy.optimize.brentq(
            lambda x: M * (x - x * x * gs) - math.expm1(x),
            lo,
            hi,
            xtol=1e-15,
            rtol=8.9e-16,
        )

    def test_m2_value(self):
        m = ExponentialEfficiency(M=2)
        ceiling = min(m.gamma_star, 1.0 / m.gamma_star)
        beta = solve_beta_star(m, ceiling)
        oracle = self.brentq_beta_star(2, 1e-6, ceiling * (1.0 - 1e-9))
        assert beta == pytest.approx(oracle, rel=1e-9)

    def test_m100_value(self):
        m = ExponentialEfficiency(M=100)
        ceiling = min(m.gamma_star, 1.0 / m.gamma_star)
        beta = solve_beta_star(m, ceiling)
        oracle = self.brentq_beta_star(100, 1e-9, ceiling * (1.0 - 1e-9))
        assert beta == pytest.approx(0.1527809596467687, rel=1e-9)
        assert beta == pytest.approx(oracle, rel=1e-9)

    def test_strictly_inside_band(self):
        for model in (
            ExponentialEfficiency(M=2),
            ExponentialEfficiency(M=5),
            ExponentialEfficiency(M=20),
            ExponentialEfficiency(M=100),
            ScaledExponentialEfficiency(),
        ):
            gs = model.gamma_star
            ceiling = min(gs, 1.0 / gs)
            beta = solve_beta_star(model, ceiling)
            assert beta is not None
            assert 0.0 < beta < ceiling

    def test_residual_vanishes_at_root(self):
        m = ExponentialEfficiency(M=2)
        gs = m.gamma_star
        beta = solve_beta_star(m, min(gs, 1.0 / gs))
        generic = (beta - beta * beta * gs) * m.derivative(beta) - m.value(beta)
        assert abs(generic) <= 1e-10

    def test_bad_ceiling_rejected(self):
        m = ExponentialEfficiency(M=2)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                solve_beta_star(m, bad)


def mpmath_beta_star(model, guess):
    """Root of (x - x^2 g*) f'(x) = f(x) near ``guess``, at 50 digits, for the
    double ``g* = model.gamma_star``."""
    gs = mpmath.mpf(model.gamma_star)

    def residual(x):
        if isinstance(model, ExponentialEfficiency):  # the reduced form
            return model.M * (x - x * x * gs) - mpmath.expm1(x)
        e = mpmath.exp(-2 * x)  # ScaledExponentialEfficiency: f = (1 - e^-2x)^2
        return (x - x * x * gs) * 4 * e * (1 - e) - (1 - e) ** 2

    with mpmath.workdps(50):
        return mpmath.findroot(residual, mpmath.mpf(guess))


class TestBetaStarCache:
    MODELS = {
        "M2": ExponentialEfficiency(M=2),
        "M5": ExponentialEfficiency(M=5),
        "M20": ExponentialEfficiency(M=20),
        "M100": ExponentialEfficiency(M=100),
        "M1e6": ExponentialEfficiency(M=10**6),
        "scaled": ScaledExponentialEfficiency(),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_root_within_one_ulp_of_reference(self, name):
        model = self.MODELS[name]
        ((root, rate),) = model.beta_star_roots
        gs = model.gamma_star
        assert 0.0 < root < min(gs, 1.0 / gs)
        assert abs(mpmath.mpf(root) - mpmath_beta_star(model, root)) <= math.ulp(root)
        assert rate == float(model.value(root)) * (1.0 - root * gs) / root

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_x_max_knife_edge(self, name):
        model = self.MODELS[name]
        ((root, _),) = model.beta_star_roots
        assert solve_beta_star(model, root) == root
        assert solve_beta_star(model, 1.0) == root
        assert solve_beta_star(model, math.nextafter(root, 0.0)) is None

    def test_rational_sigmoid_has_no_root(self):
        m = RationalSigmoidEfficiency()
        assert m.beta_star_roots == ()
        for x_max in np.geomspace(1e-12, 1e3, 61):
            assert solve_beta_star(m, float(x_max)) is None

    def test_scan_runs_once_per_model(self, monkeypatch):
        calls = []
        scan = specgame.efficiency._scan_roots

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(specgame.efficiency, "_scan_roots", counting)
        for _ in range(2):
            m = ExponentialEfficiency(M=7)
            m.gamma_star
            before = len(calls)
            roots = [solve_beta_star(m, x) for x in np.linspace(0.01, 0.5, 25)]
            assert len(calls) == before + 1
            assert m.beta_star_roots is m.beta_star_roots
        assert roots[0] is None and roots[-1] is not None

    def test_not_solved_before_first_use(self):
        m = ExponentialEfficiency(M=100)
        m.gamma_star
        assert "beta_star_roots" not in vars(m)
