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


def closed_forms_reference(l_s, phi_w, dps: int = 40):
    """(alpha, beta, kl) at the double inputs (l_s, phi_w) by mpmath's own gamma functions.

    The thresholds l_s ln(1+phi)(1+1/phi) and l_s ln(1+phi)/phi are formed
    at ``dps`` digits from the doubles, and alpha = Q and beta = P each come
    from mpmath's regularized ``gammainc`` directly, so both tails keep
    their digits. Unlike the series above, which takes about x terms, it
    stays fast near x = a at a = 1e6. Returns three mpf.
    """
    with mp.workdps(dps):
        l_s = mpf(l_s)
        phi = mpf(phi_w)
        log_term = mp.log1p(phi)
        x1 = l_s * log_term / phi
        alpha = mp.gammainc(l_s, x1 + l_s * log_term, mp.inf, regularized=True)
        beta = mp.gammainc(l_s, 0, x1, regularized=True)
        return alpha, beta, l_s * (log_term - phi / (1 + phi))
