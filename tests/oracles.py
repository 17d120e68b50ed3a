"""Extended-precision reference implementations used only by the tests.

These deliberately share no code with the package: the incomplete gamma
reference evaluates the ascending power series term by term under mpmath,
so agreement with the package is evidence rather than tautology.
"""

from mpmath import mp, mpf


def reg_lower_gamma_reference(a, x, dps: int = 50):
    """P(a, x) from the power series x^a e^(-x) sum_n x^n / (a(a+1)...(a+n)).

    Evaluated at ``dps`` decimal digits with an adaptive number of terms;
    returns an mpf.
    """
    with mp.workdps(dps):
        a = mpf(a)
        x = mpf(x)
        if x == 0:
            return mpf(0)
        tol = mpf(10) ** (-(dps + 10))
        term = 1 / a
        total = term
        converged = False
        for n in range(1, 500_000):
            term *= x / (a + n)
            total += term
            if abs(term) < tol * abs(total):
                converged = True
                break
        if not converged:
            raise RuntimeError(f"reference series did not converge for a={a}, x={x}")
        return total * mp.exp(-x + a * mp.log(x) - mp.loggamma(a))


def reg_upper_gamma_reference(a, x, dps: int = 50):
    """Q(a, x) = 1 - P(a, x) by mpmath's own upper incomplete gamma.

    Evaluated directly rather than as 1 - P, so the result keeps ``dps``
    significant digits when Q is far below 1e-16; returns an mpf.
    """
    with mp.workdps(dps):
        return mp.gammainc(mpf(a), mpf(x), mp.inf, regularized=True)
