import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableguess import regression
from tableguess.regression import (
    KIND_GOAL_DIFFERENCE,
    KIND_TABLE_RANK,
    DegeneratePredictorError,
    R2Curve,
    r2_curve,
    simple_ols,
    threshold_round,
)

IDENTITY_TOL = 1e-12


def pearson_r2(x, y) -> float:
    return float(np.corrcoef(x, y)[0, 1]) ** 2


class TestSimpleOls:
    def test_perfect_fit(self):
        fit = simple_ols(range(1, 11), range(1, 11))
        assert fit.beta0 == 0.0
        assert fit.beta1 == 1.0
        assert fit.r_squared == 1.0
        assert fit.n_points == 10

    def test_hand_computed_quarter(self):
        # means 2,2; slope 1/2; residuals (-1/2, 1, -1/2); R^2 = 1 - 1.5/2
        fit = simple_ols([1, 2, 3], [1, 3, 2])
        assert fit.r_squared == pytest.approx(0.25, abs=1e-15)
        assert pearson_r2([1, 2, 3], [1, 3, 2]) == pytest.approx(0.25, abs=1e-12)

    def test_reversed_y_is_still_perfectly_linear(self):
        y = list(range(1, 9))
        fit = simple_ols(list(reversed(y)), y)
        assert fit.beta1 == -1.0
        assert fit.r_squared == 1.0

    def test_zero_variance_predictor(self):
        with pytest.raises(DegeneratePredictorError):
            simple_ols([5, 5, 5], [1, 2, 3])

    def test_constant_response_has_undefined_r2(self):
        fit = simple_ols([1, 2, 3], [4, 4, 4])
        assert fit.r_squared is None
        assert fit.beta1 == 0.0
        assert fit.beta0 == 4.0

    def test_length_preconditions(self):
        with pytest.raises(ValueError):
            simple_ols([1, 2], [1, 2])
        with pytest.raises(ValueError):
            simple_ols([1, 2, 3], [1, 2])

    def test_matches_squared_pearson_on_random_data(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            size = int(rng.integers(10, 31))
            x = rng.normal(size=size)
            y = rng.normal(size=size) + 0.3 * x
            fit = simple_ols(x, y)
            assert abs(fit.r_squared - pearson_r2(x, y)) <= IDENTITY_TOL

    def test_affine_invariance(self):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            size = int(rng.integers(10, 31))
            x = rng.normal(size=size)
            y = rng.normal(size=size)
            base = simple_ols(x, y).r_squared
            for a in (-3.0, 0.5, 7.0):
                shifted = simple_ols(a * x + 11.25, y).r_squared
                assert abs(shifted - base) <= IDENTITY_TOL

    def test_swap_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            size = int(rng.integers(10, 31))
            x = rng.normal(size=size)
            y = rng.normal(size=size)
            assert abs(simple_ols(x, y).r_squared - simple_ols(y, x).r_squared) <= IDENTITY_TOL


def exact_fit(x, y):
    """(beta0, beta1, R^2) from Fractions, each rounded once; R^2 is None
    when y is constant."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    n = len(x)
    sx, sy = sum(x), sum(y)
    cxx = n * sum(a * a for a in x) - sx * sx
    cxy = n * sum(a * b for a, b in zip(x, y)) - sx * sy
    cyy = n * sum(b * b for b in y) - sy * sy
    beta1 = cxy / cxx
    r_squared = None if cyy == 0 else float(cxy * cxy / (cxx * cyy))
    return float((sy - beta1 * sx) / n), float(beta1), r_squared


def point_lists(values):
    return st.integers(3, 30).flatmap(
        lambda n: st.tuples(st.lists(values, min_size=n, max_size=n),
                            st.lists(values, min_size=n, max_size=n))
    )


class TestExactOls:
    @settings(deadline=None)
    @given(point_lists(st.integers(-(10**30), 10**30) | st.integers(-3, 3)))
    def test_r_squared_is_the_integer_formula_rounded_once(self, xy):
        x, y = xy
        n = len(x)
        sxx = n * sum(a * a for a in x) - sum(x) ** 2
        syy = n * sum(b * b for b in y) - sum(y) ** 2
        sxy = n * sum(a * b for a, b in zip(x, y)) - sum(x) * sum(y)
        if sxx == 0:
            with pytest.raises(DegeneratePredictorError):
                simple_ols(x, y)
            return
        fit = simple_ols(x, y)
        assert fit.r_squared == (None if syy == 0 else sxy * sxy / (sxx * syy))
        assert (fit.beta0, fit.beta1, fit.r_squared) == exact_fit(x, y)

    @settings(deadline=None)
    @given(point_lists(st.floats(-1e150, 1e150) | st.floats(-1.0, 1.0)))
    def test_float_inputs_are_read_exactly(self, xy):
        x, y = xy
        if len(set(x)) == 1:
            return
        fit = simple_ols(x, y)
        assert (fit.beta0, fit.beta1, fit.r_squared) == exact_fit(x, y)
        assert fit.r_squared is None or 0.0 <= fit.r_squared <= 1.0

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, None, "a", [1.0, 2.0], object()]
    )
    def test_non_finite_or_non_numeric_input_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="x must be a 1-d sequence of finite numbers"):
            simple_ols([1.0, bad, 3.0], [1, 2, 3])
        with pytest.raises(ValueError, match="y must be"):
            simple_ols([1, 2, 3], [1.0, 2.0, bad])

    def test_numpy_scalars_are_numbers(self):
        x = np.arange(1, 6)
        assert simple_ols(x, x.astype(np.float32)).r_squared == 1.0


class TestR2Curve:
    def test_final_round_rank_curve_is_exactly_one(self, synthetic_dataset):
        curve = r2_curve(synthetic_dataset, KIND_TABLE_RANK)
        assert curve.points[-1] == (26, 1.0)

    def test_flat_fixture_is_one_everywhere(self, flat_dataset):
        curve = r2_curve(flat_dataset, KIND_TABLE_RANK)
        assert [value for _, value in curve.points] == [1.0, 1.0, 1.0]

    def test_all_draw_round_is_undefined_for_gd(self, drawish_dataset):
        curve = r2_curve(drawish_dataset, KIND_GOAL_DIFFERENCE)
        assert curve.points[0] == (1, None)
        assert curve.points[1][1] is not None

    def test_rank_curve_defined_even_in_draw_rounds(self, drawish_dataset):
        curve = r2_curve(drawish_dataset, KIND_TABLE_RANK)
        assert all(value is not None for _, value in curve.points)

    def test_values_stay_in_unit_interval(self, synthetic_dataset):
        for kind in (KIND_TABLE_RANK, KIND_GOAL_DIFFERENCE):
            curve = r2_curve(synthetic_dataset, kind)
            assert curve.season == synthetic_dataset.season
            rounds = [rnd for rnd, _ in curve.points]
            assert rounds == sorted(rounds) == list(range(1, 27))
            for _, value in curve.points:
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_unknown_kind(self, synthetic_dataset):
        with pytest.raises(ValueError):
            r2_curve(synthetic_dataset, "points")

    def test_needs_three_teams(self):
        from tableguess.league import parse_matches

        tiny = parse_matches(
            io.StringIO("season,round,home_team,away_team,home_goals,away_goals\nS,1,A,B,1,0\n")
        )
        with pytest.raises(ValueError):
            r2_curve(tiny, KIND_TABLE_RANK)


class TestThresholdRound:
    def test_flat_curve_crosses_immediately(self, flat_dataset):
        curve = r2_curve(flat_dataset, KIND_TABLE_RANK)
        assert threshold_round(curve, 0.8) == 1

    def test_never_crossing_curve(self):
        curve = R2Curve(season="s", kind=KIND_TABLE_RANK, points=((1, 0.1), (2, 0.4)))
        assert threshold_round(curve, 0.8) is None

    def test_undefined_points_are_skipped(self):
        curve = R2Curve(season="s", kind=KIND_GOAL_DIFFERENCE, points=((1, None), (2, 0.9)))
        assert threshold_round(curve, 0.8) == 2

    def test_threshold_validation(self):
        curve = R2Curve(season="s", kind=KIND_TABLE_RANK, points=((1, 1.0),))
        with pytest.raises(ValueError):
            threshold_round(curve, 0.0)
        with pytest.raises(ValueError):
            threshold_round(curve, 1.5)

