"""KPC-style MAP fitting from an observed inter-arrival sample.

This is the workload-model step of the BATCH baseline (§II of the BATCH
paper, §IV-B here): every hour BATCH collects the previous window's
arrivals and fits a Markovian Arrival Process to them. We follow the
KPC-toolbox philosophy (Casale, Zhang & Smirni, *Perform. Evaluation* 2010):
match the first two inter-arrival moments plus the lag-1 autocorrelation,
with progressively simpler fallbacks when the data cannot support a
correlated 2-phase fit:

* SCV ≈ 1, ρ₁ ≈ 0 → Poisson process;
* SCV > 1, ρ₁ ≈ 0 → hyperexponential renewal MAP;
* SCV < 1            → Erlang renewal MAP;
* otherwise          → MMPP(2) via numerical moment matching.

The deliberate cost of this step (an optimizer run over analytic MAP
moments) reproduces BATCH's documented fitting overhead, and its
*staleness* — it describes last hour, not the next — reproduces BATCH's
failure mode on bursty traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.arrival.map_process import MAP, erlang_map, hyperexp_map, poisson_map
from repro.arrival.stats import autocorrelation, scv


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of a MAP fit."""

    kind: str
    target_mean: float
    target_scv: float
    target_rho1: float
    fitted_mean: float
    fitted_scv: float
    fitted_rho1: float

    @property
    def mean_error(self) -> float:
        return abs(self.fitted_mean - self.target_mean) / self.target_mean


def empirical_targets(interarrival_times: np.ndarray) -> tuple[float, float, float]:
    """(mean, SCV, lag-1 autocorrelation) of an inter-arrival sample."""
    x = np.asarray(interarrival_times, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 inter-arrival samples, got {x.size}")
    if np.any(x < 0):
        raise ValueError("inter-arrival times must be non-negative")
    mean = float(x.mean())
    if mean <= 0:
        raise ValueError("mean inter-arrival time must be positive")
    c2 = scv(x)
    rho1 = float(autocorrelation(x, 1)[0]) if x.size >= 3 else 0.0
    return mean, c2, rho1


def fit_map(
    interarrival_times: np.ndarray,
    scv_tol: float = 0.05,
    rho_tol: float = 0.02,
) -> tuple[MAP, FitReport]:
    """Fit a MAP to an inter-arrival sample, with renewal/Poisson fallbacks.

    Returns the fitted process and a :class:`FitReport` comparing the
    empirical targets with the fitted process's analytic statistics.
    """
    mean, c2, rho1 = empirical_targets(interarrival_times)
    rate = 1.0 / mean

    if abs(c2 - 1.0) <= scv_tol and abs(rho1) <= rho_tol:
        fitted, kind = poisson_map(rate), "poisson"
    elif c2 < 1.0 - scv_tol:
        stages = max(2, min(20, int(round(1.0 / max(c2, 0.05)))))
        fitted, kind = erlang_map(rate, stages), f"erlang-{stages}"
    elif abs(rho1) <= rho_tol:
        fitted, kind = hyperexp_map(rate, max(c2, 1.0 + scv_tol)), "hyperexp"
    else:
        fitted, kind = _fit_mmpp2(mean, c2, max(rho1, 0.0)), "mmpp2"

    report = FitReport(
        kind=kind,
        target_mean=mean,
        target_scv=c2,
        target_rho1=rho1,
        fitted_mean=fitted.mean_interarrival(),
        fitted_scv=fitted.scv(),
        fitted_rho1=float(fitted.autocorrelation(1)[0]),
    )
    return fitted, report


def correlated_h2_map(mean: float, c2: float, rho1: float) -> MAP:
    """Closed-form MAP(2) matching (mean, SCV, ρ₁) exactly when feasible.

    Construction: a Markov-switching hyperexponential. The marginal is the
    balanced-means H2 that matches ``(mean, c2)``; the phase chain embedded
    at arrivals is the *sticky* matrix ``P = ρ·I + (1−ρ)·𝟙π``, which keeps
    the marginal exact for any stickiness ρ and yields a geometric
    inter-arrival ACF ρ_k = ρ^k · V_between/Var. Solving for ρ matches the
    empirical lag-1 autocorrelation (clamped to the feasible range
    ``[0, ρ_max)`` — a two-phase MAP cannot exceed ρ_max = V_between/Var).
    """
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    if c2 <= 1.0:
        raise ValueError(f"correlated H2 requires SCV > 1, got {c2}")
    # Balanced-means H2 marginal.
    p1 = 0.5 * (1.0 + np.sqrt((c2 - 1.0) / (c2 + 1.0)))
    p2 = 1.0 - p1
    rate = 1.0 / mean
    mu1 = 2.0 * p1 * rate
    mu2 = 2.0 * p2 * rate
    pi = np.array([p1, p2])
    m = np.array([1.0 / mu1, 1.0 / mu2])
    between = float(pi @ m**2 - mean**2)  # variance of conditional means
    var = 2.0 * float(pi @ m**2) - mean**2
    rho_max = between / var if var > 0 else 0.0
    if rho_max <= 0:
        stick = 0.0
    else:
        stick = float(np.clip(rho1 / rho_max, 0.0, 0.999))
    p = stick * np.eye(2) + (1.0 - stick) * np.outer(np.ones(2), pi)
    d0 = np.diag([-mu1, -mu2])
    d1 = np.array([[mu1, 0.0], [0.0, mu2]]) @ p
    return MAP(d0, d1)


def _fit_mmpp2(mean: float, c2: float, rho1: float) -> MAP:
    """Correlated 2-phase fit; falls back to renewal H2 for SCV ≤ 1 edge
    cases that slip past the branch logic."""
    if c2 <= 1.0:
        return hyperexp_map(1.0 / mean, 1.0 + 1e-3)
    return correlated_h2_map(mean, c2, rho1)


def fit_map_kpc(
    interarrival_times: np.ndarray,
    order: int = 4,
    n_lags: int = 5,
    restarts: int = 5,
    max_nfev: int = 200,
    seed: int = 0,
) -> tuple[MAP, FitReport]:
    """KPC-toolbox-style numerical MAP(``order``) fit.

    Matches the first two inter-arrival moments plus the autocorrelation at
    lags 1..``n_lags`` by nonlinear least squares over a general MAP's rate
    parameters (log-space, multiple random restarts) — the genuinely
    expensive fitting procedure BATCH relies on (§IV-F attributes most of
    BATCH's 40 s decision latency to it). Use :func:`fit_map` for the fast
    closed-form 2-phase alternative.
    """
    from scipy import optimize

    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if restarts < 1 or n_lags < 1:
        raise ValueError("restarts and n_lags must be >= 1")
    mean, c2, _ = empirical_targets(interarrival_times)
    x = np.asarray(interarrival_times, dtype=float)
    from repro.arrival.stats import autocorrelation

    rho = autocorrelation(x, n_lags) if x.size >= n_lags + 2 else np.zeros(n_lags)
    target = np.concatenate([[mean, c2], rho])
    weights = np.concatenate([[1.0 / mean, 1.0 / max(c2, 1.0)],
                              np.full(n_lags, 1.0 / 0.1)])
    rate = 1.0 / mean
    m = order
    n_off = m * (m - 1)

    def build(theta: np.ndarray) -> MAP | None:
        off = np.exp(theta[:n_off])
        d1 = np.exp(theta[n_off:]).reshape(m, m)
        d0 = np.zeros((m, m))
        idx = 0
        for i in range(m):
            for j in range(m):
                if i != j:
                    d0[i, j] = off[idx]
                    idx += 1
        np.fill_diagonal(d0, 0.0)
        diag = -(d0.sum(axis=1) + d1.sum(axis=1))
        if np.any(diag >= -1e-12):
            return None
        np.fill_diagonal(d0, diag)
        try:
            return MAP(d0, d1)
        except (ValueError, np.linalg.LinAlgError):
            return None

    def residuals(theta: np.ndarray) -> np.ndarray:
        candidate = build(theta)
        if candidate is None:
            return np.full(target.size, 1e3)
        try:
            got = np.concatenate([
                [candidate.mean_interarrival(), candidate.scv()],
                candidate.autocorrelation(n_lags),
            ])
        except (np.linalg.LinAlgError, RuntimeError):
            return np.full(target.size, 1e3)
        if not np.all(np.isfinite(got)):
            return np.full(target.size, 1e3)
        return (got - target) * weights

    rng = np.random.default_rng(seed)
    best_theta, best_cost = None, np.inf
    for _ in range(restarts):
        # Start near a Poisson-equivalent with random perturbation.
        theta0 = np.concatenate([
            np.log(np.full(n_off, rate * 0.2)) + rng.normal(0, 1.0, n_off),
            np.log(np.full(m * m, rate / m)) + rng.normal(0, 1.0, m * m),
        ])
        try:
            sol = optimize.least_squares(residuals, theta0, max_nfev=max_nfev)
        except Exception:
            continue
        if sol.cost < best_cost and build(sol.x) is not None:
            best_theta, best_cost = sol.x, sol.cost
    if best_theta is None:
        # Optimization failed everywhere: fall back to the closed form.
        return fit_map(interarrival_times)
    fitted = build(best_theta)
    report = FitReport(
        kind=f"kpc-{order}",
        target_mean=mean,
        target_scv=c2,
        target_rho1=float(rho[0]),
        fitted_mean=fitted.mean_interarrival(),
        fitted_scv=fitted.scv(),
        fitted_rho1=float(fitted.autocorrelation(1)[0]),
    )
    return fitted, report
