"""Parameter recovery from a labelled citation graph.

All 4k parameters come from per-community degree statistics: community
shares from sizes, mean and variance of out-degree from first and second
moments, and the preferential fraction from the in-degree Gini coefficient.
The first three are closed-form ratios.  The preferential fraction is fitted
by a one-dimensional root find per community: the generator's in-degrees
follow the discrete Waring law (Simon 1955), and its Gini, evaluated by
``waring_gini``, is matched to the community's sample Gini.  The closed-form
inversion of the continuous (Lomax) law is kept as ``rho_raw`` and decides
the clamp flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .generator import CsParams, RHO_MAX, RHO_MIN, generate
from .graph import LabeledGraph


# Search interval for the effective preferentiality nu of one community.
NU_MIN = 1e-6
NU_MAX = 1.0 - 1e-6
# Survival-function terms summed exactly before the analytic tail.
WARING_TERMS = 2048


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class CommunityStats:
    """Per-community size, degree totals, and in-degree Gini."""

    sizes: np.ndarray
    out_totals: np.ndarray
    in_totals: np.ndarray
    gini_in: np.ndarray


@dataclass(frozen=True)
class FitResult:
    params: CsParams
    stats: CommunityStats
    rho_raw: np.ndarray
    sigma2_raw: np.ndarray
    clamped_low: np.ndarray
    clamped_high: np.ndarray

    @property
    def any_clamped(self) -> bool:
        return bool(self.clamped_low.any() or self.clamped_high.any())


def gini(values) -> float:
    """Gini coefficient of nonnegative counts; 0 when the mean is 0.

    Uses the O(n log n) sorted form of the mean-absolute-difference
    definition: sum over sorted x of (2i - n - 1) x_i, divided by n^2 mu.
    """
    x = np.sort(np.asarray(values, np.float64))
    n = x.size
    if n == 0:
        raise EstimationError("gini of an empty sequence")
    if (x < 0).any():
        raise EstimationError("gini requires nonnegative values")
    total = x.sum()
    if total == 0:
        return 0.0
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum((2.0 * i - n - 1.0) * x) / (n * total))


def waring_gini(nu: float, mu: float) -> float:
    """Gini coefficient of the discrete Waring in-degree law.

    Inside a community the generator attaches to a node of in-degree k at a
    rate proportional to k + A, which gives Simon's Waring law
    P_0 = 1/(1 + nu A), P_k = P_{k-1} nu (k-1+A) / (1 + nu (k+A)), with mean
    mu = nu A / (1 - nu); ``mu`` therefore fixes A = mu (1 - nu) / nu.  The
    Gini is 1 - sum_{k>=1} S_k^2 / mu, where, with b = 1/nu,
    S_k = P(X >= k) = P_0 Gamma(1+A+b) Gamma(k+A) / (Gamma(A) b Gamma(k+A+b)).
    The first K - 1 terms (K = WARING_TERMS) are summed through log-gamma;
    the rest is the integral from K - 1/2 of the power-law tail
    S_k ~ (k + A + (b-1)/2)^-b.
    """
    if not 0.0 < nu < 1.0:
        raise EstimationError("nu must lie strictly between 0 and 1")
    if not mu > 0.0:
        raise EstimationError("mean in-degree must be positive")
    b = 1.0 / nu
    a = mu * (1.0 - nu) / nu
    k = np.arange(1, WARING_TERMS + 1, dtype=np.float64)
    log_s = (gammaln(1.0 + a + b) - gammaln(a) - np.log(b) - np.log1p(nu * a)
             + gammaln(k + a) - gammaln(k + a + b))
    s = np.exp(log_s)
    x = WARING_TERMS + a + 0.5 * (b - 1.0)
    tail = (s[-1] ** 2 * x * np.exp(-(2.0 * b - 1.0) * np.log1p(-0.5 / x))
            / (2.0 * b - 1.0))
    return float(1.0 - (np.sum(s[:-1] ** 2) + tail) / mu)


def _fit_nu(g: float, mu: float) -> float:
    """The nu in [NU_MIN, NU_MAX] whose Waring Gini at mean ``mu`` equals ``g``.

    The Waring Gini rises with nu, so a ``g`` below the law's floor gives
    NU_MIN and one above its ceiling gives NU_MAX.
    """
    def excess(nu):
        return waring_gini(nu, mu) - g

    if excess(NU_MIN) >= 0.0:
        return NU_MIN
    if excess(NU_MAX) <= 0.0:
        return NU_MAX
    return float(brentq(excess, NU_MIN, NU_MAX, xtol=1e-10))


def community_stats(graph: LabeledGraph, labels: np.ndarray = None) -> CommunityStats:
    labels = graph.labels if labels is None else np.asarray(labels, np.int64)
    if labels is None or labels.shape[0] != graph.num_nodes:
        raise EstimationError("every node needs a community label")
    if graph.num_nodes == 0:
        raise EstimationError("empty graph")
    if labels.min() < 0:
        raise EstimationError("labels must be dense nonnegative integers")
    k = int(labels.max()) + 1
    d_in, d_out = graph.d_in, graph.d_out
    sizes = np.bincount(labels, minlength=k)
    out_totals = np.bincount(labels, weights=d_out, minlength=k).astype(np.int64)
    in_totals = np.bincount(labels, weights=d_in, minlength=k).astype(np.int64)
    gini_in = np.empty(k, np.float64)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    for c in range(k):
        members = order[bounds[c]:bounds[c + 1]]
        gini_in[c] = gini(d_in[members]) if members.size else 0.0
    return CommunityStats(sizes=sizes, out_totals=out_totals,
                          in_totals=in_totals, gini_in=gini_in)


def estimate(graph: LabeledGraph, labels: np.ndarray = None) -> FitResult:
    """Recover generation parameters from a labelled graph.

    Communities of size one abort (their mean out-degree is undefined).

    ``rho_raw`` is the raw preferential fraction: the closed-form inversion
    of the continuous-law Gini G = 1/(2 - nu) with a finite-size term.  It
    sits above the true value, because the generator's integer in-degrees
    follow the discrete Waring law, whose Gini is higher.  A set clamp flag
    marks a community whose ``rho_raw`` fell outside [1e-3, 1-1e-3], which
    usually means it violates the growth-model assumptions; its
    ``params.rho`` is that bound.  Every other community gets the corrected
    value in ``params.rho``: nu_c from ``_fit_nu`` on the sample Gini scaled
    by s/(s-1) for a community of s members, and the mean in-degree
    mu_c = in-total / s, then rho_c = nu_c mu_c / m_c, clipped to the same
    range.  A Gini below the Waring law's floor (its nu -> 0 limit) thus
    gives rho = 1e-3 when the closed form does not flag it; a uniform
    community such as a directed 4-cycle (Gini 0) is flagged high by the
    closed form and keeps 1-1e-3.
    """
    labels = graph.labels if labels is None else np.asarray(labels, np.int64)
    stats = community_stats(graph, labels)
    k = stats.sizes.size
    singles = np.flatnonzero(stats.sizes <= 1)
    if singles.size:
        raise EstimationError(
            "communities of size <= 1 cannot be estimated: "
            + ", ".join(str(c) for c in singles))
    n = graph.num_nodes
    sizes = stats.sizes.astype(np.float64)
    p_hat = sizes / n
    m_hat = stats.out_totals / (sizes - 1.0)
    d_out = graph.d_out.astype(np.float64)
    sq_totals = np.bincount(labels, weights=d_out * d_out, minlength=k)
    sigma2_raw = (sq_totals - sizes * m_hat * m_hat) / (sizes - 1.0)
    g = stats.gini_in
    numer = stats.in_totals * (2.0 * g + sizes - 2.0 * g * sizes)
    denom = stats.out_totals * (g + 1.0 - g * sizes)
    rho_raw = np.empty(k, np.float64)
    for c in range(k):
        if stats.out_totals[c] == 0:
            rho_raw[c] = -np.inf
        elif denom[c] == 0.0:
            rho_raw[c] = np.inf
        else:
            rho_raw[c] = numer[c] / denom[c]
    clamped_low = rho_raw < RHO_MIN
    clamped_high = rho_raw > RHO_MAX
    rho_hat = np.clip(rho_raw, RHO_MIN, RHO_MAX)
    mu = stats.in_totals / sizes
    g_unbiased = g * sizes / (sizes - 1.0)
    for c in np.flatnonzero(~(clamped_low | clamped_high)):
        rho_hat[c] = _fit_nu(g_unbiased[c], mu[c]) * mu[c] / m_hat[c]
    rho_hat = np.clip(rho_hat, RHO_MIN, RHO_MAX)
    params = CsParams(p=p_hat, m=m_hat, rho=rho_hat,
                      sigma2=np.maximum(sigma2_raw, 0.0))
    return FitResult(params=params, stats=stats, rho_raw=rho_raw,
                     sigma2_raw=sigma2_raw, clamped_low=clamped_low,
                     clamped_high=clamped_high)


@dataclass(frozen=True)
class RoundtripReport:
    fit: FitResult
    p_abs_err: np.ndarray
    m_rel_err: np.ndarray
    rho_abs_err: np.ndarray
    sigma2_rel_err: np.ndarray


def roundtrip_report(params: CsParams, n: int, seed) -> RoundtripReport:
    """Generate with ``params`` then re-estimate; report per-community errors."""
    graph = generate(params, n, seed)
    fit = estimate(graph)
    est = fit.params
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma2_rel = np.where(params.sigma2 > 0,
                              np.abs(fit.sigma2_raw - params.sigma2) / params.sigma2,
                              np.abs(fit.sigma2_raw))
    return RoundtripReport(
        fit=fit,
        p_abs_err=np.abs(est.p - params.p),
        m_rel_err=np.abs(est.m - params.m) / params.m,
        rho_abs_err=np.abs(est.rho - params.rho),
        sigma2_rel_err=sigma2_rel,
    )
