"""Empirical statistics of arrival traces: rates, autocorrelation, and the
index of dispersion (IDC) the paper uses to quantify burstiness (Fig. 5).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_sorted


def interarrivals(timestamps: np.ndarray) -> np.ndarray:
    """Inter-arrival times of a sorted timestamp array."""
    timestamps = check_sorted(np.asarray(timestamps, dtype=float), "timestamps")
    if timestamps.size < 2:
        return np.empty(0)
    return np.diff(timestamps)


def mean_rate(timestamps: np.ndarray, duration: float | None = None) -> float:
    """Arrivals per unit time over ``duration`` (default: observed span)."""
    timestamps = np.asarray(timestamps, dtype=float)
    if timestamps.size == 0:
        return 0.0
    if duration is None:
        duration = float(timestamps[-1] - timestamps[0])
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    return timestamps.size / duration


def binned_rate(
    timestamps: np.ndarray,
    bin_width: float,
    t_start: float | None = None,
    t_end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival rate per time bin — the series plotted in Fig. 4.

    Returns ``(bin_centers, rates)``.
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    timestamps = np.asarray(timestamps, dtype=float)
    if t_start is None:
        t_start = 0.0 if timestamps.size == 0 else float(timestamps[0])
    if t_end is None:
        t_end = t_start + bin_width if timestamps.size == 0 else float(timestamps[-1])
    n_bins = max(1, int(np.ceil((t_end - t_start) / bin_width)))
    edges = t_start + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(timestamps, bins=edges)
    centers = edges[:-1] + bin_width / 2
    return centers, counts / bin_width


def scv(x: np.ndarray) -> float:
    """Squared coefficient of variation σ²/μ² of a positive sample."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    mu = x.mean()
    if mu == 0:
        return 0.0
    return float(x.var() / mu**2)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation ρ_k for k = 1..max_lag (FFT-based)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if n < 2:
        return np.zeros(max_lag)
    max_lag = min(max_lag, n - 1)
    centered = x - x.mean()
    var = centered @ centered
    if var == 0:
        return np.zeros(max_lag)
    # FFT autocovariance: pad to the next power of two >= 2n for linear corr.
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[1 : max_lag + 1]
    return acov / var


def idc(x: np.ndarray, max_lag: int | None = None, cutoff: float = 0.01) -> float:
    """Index of dispersion of a (interarrival-time) series — the paper's
    burstiness metric: ``IDC = (σ²/μ²)(1 + 2 Σ_k ρ_k)``.

    The autocorrelation sum is truncated at ``max_lag`` (default √n·4,
    capped at n−1) and, past the first lag whose |ρ| drops below
    ``cutoff``, the tail is ignored — mirroring the paper's remark that
    empirical autocorrelation vanishes at high lags, giving finite IDC
    estimates.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return 1.0
    if max_lag is None:
        max_lag = min(x.size - 1, max(50, int(4 * np.sqrt(x.size))))
    rho = autocorrelation(x, max_lag)
    below = np.nonzero(np.abs(rho) < cutoff)[0]
    if below.size:
        rho = rho[: below[0]]
    return float(scv(x) * (1.0 + 2.0 * rho.sum()))

