import math

import pytest

from beamsweep import reg_lower_gamma

from oracles import reg_lower_gamma_reference

# Frozen from the extended-precision series reference (tests/oracles.py).
P_5_5 = 0.5595067149347876


class TestRegLowerGamma:
    def test_shape_one_is_exponential_cdf(self):
        for x in (0.1, 1.0, 2.5, 10.0):
            assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 8.0, 160.0, 1e4])
    def test_zero_argument(self, a):
        assert reg_lower_gamma(a, 0.0) == 0.0

    def test_point_five_five(self):
        assert reg_lower_gamma(5.0, 5.0) == pytest.approx(P_5_5, abs=1e-12)

    def test_accuracy_against_reference(self):
        # Contract corners plus the central band x ~ a where the series and
        # continued fraction hand off.
        cases = [(0.5, x) for x in (0.01, 0.3, 1.0, 30.0, 500.0)]
        cases += [(2.0, x) for x in (0.5, 2.0, 50.0)]
        cases += [(16.0, x) for x in (4.0, 15.0, 16.0, 17.0, 60.0)]
        cases += [(160.0, x) for x in (100.0, 155.0, 160.0, 165.0, 400.0)]
        cases += [(1e4, x) for x in (6e3, 9.9e3, 1e4, 1.01e4, 1.3e4, 2e4)]
        for a, x in cases:
            got = reg_lower_gamma(a, x)
            want = float(reg_lower_gamma_reference(a, x))
            assert got == pytest.approx(want, abs=1e-12), (a, x)

    def test_saturated_tail(self):
        # Far above the mean the value is 1 to double precision.
        assert reg_lower_gamma(0.5, 1e5) == pytest.approx(1.0, abs=1e-12)
        assert reg_lower_gamma(160.0, 1e5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0, 32.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_recurrence_step(self, a, x):
        # P(a+1, x) = P(a, x) - x^a e^(-x) / Gamma(a+1)
        step = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
        assert reg_lower_gamma(a + 1.0, x) == pytest.approx(
            reg_lower_gamma(a, x) - step, abs=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_integer_shape_matches_factorial_form(self, n, x):
        # P(n, x) = 1 - e^(-x) sum_{k<n} x^k / k!
        tail = math.fsum(
            math.exp(k * math.log(x) - x - math.lgamma(k + 1.0)) for k in range(n)
        )
        assert reg_lower_gamma(float(n), x) == pytest.approx(1.0 - tail, abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0, 32.0])
    def test_monotone_in_argument(self, a):
        xs = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
        values = [reg_lower_gamma(a, x) for x in xs]
        assert all(b >= a_ for a_, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_non_increasing_in_shape(self, x):
        shapes = [0.5, 1.0, 2.0, 8.0, 32.0]
        values = [reg_lower_gamma(a, x) for a in shapes]
        assert all(b <= a_ for a_, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "a,x",
        [
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, -0.5),
            (math.nan, 1.0),
            (1.0, math.nan),
            (math.inf, 1.0),
            (1.0, math.inf),
        ],
    )
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            reg_lower_gamma(a, x)

