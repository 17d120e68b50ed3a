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


def chernoff_information(phi, dps: int = 40):
    """C(phi) between the per-sample laws Exp(1) and Exp(1 + phi), as an mpf.

    With theta = 1 + phi, C = max over s in [0, 1] of
    (1 - s) ln theta + ln(s + (1 - s) / theta), attained at ``_optimal_s``
    (Cover & Thomas, Elements of Information Theory, section 11.9). For
    large l_s, ln xi ~ -l_s C(phi_w) (Chernoff 1952).
    """
    with mp.workdps(dps):
        theta = 1 + mpf(phi)
        s = _optimal_s(theta)
        return (1 - s) * mp.log(theta) + mp.log(s + (1 - s) / theta)


def _optimal_s(theta):
    """s* = ((1 - 1/theta) / ln theta - 1/theta) / (1 - 1/theta), where C's exponent peaks."""
    return ((1 - 1 / theta) / mp.log(theta) - 1 / theta) / (1 - 1 / theta)


def _bisect(f, lo, hi, dps: int):
    """The root of ``f`` in [lo, hi], where f(lo) > 0 > f(hi), by bisection to ``dps`` digits."""
    with mp.workdps(dps + 10):
        lo, hi = mpf(lo), mpf(hi)
        while hi - lo > lo * mpf(10) ** (-dps - 5):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def chernoff_snr(dps: int = 40):
    """phi_C*, the SNR that maximizes C(phi) / phi, as an mpf.

    Along a sweep phi_w = c m and l_s = L / m, so ln xi ~ -L c C(phi) / phi:
    the best sector count puts the SNR where phi C'(phi) = C(phi). C' is
    the phi-derivative of C's exponent at s*, by the envelope theorem:
    (1 - s*) / theta * (1 - 1 / (theta s* + 1 - s*)).
    """
    def slope_gap(phi):
        theta = 1 + phi
        s = _optimal_s(theta)
        derivative = (1 - s) / theta * (1 - 1 / (theta * s + 1 - s))
        return phi * derivative - chernoff_information(phi, mp.dps)

    return _bisect(slope_gap, 0.5, 20, dps)


def kl_snr(dps: int = 40):
    """phi_KL*, the SNR that maximizes kl(phi) / phi, as an mpf.

    kl(phi) = ln(1 + phi) - phi / (1 + phi) is the per-sample divergence
    the closed forms write as ``kl_exact / l_s``; its maximum over phi puts
    phi^2 / (1 + phi)^2 = kl(phi).
    """
    return _bisect(lambda phi: (phi / (1 + phi)) ** 2 - mp.log1p(phi) + phi / (1 + phi),
                   0.1, 100, dps)
