"""Out-of-distribution (drift) detection — when to fine-tune.

§III-D triggers fine-tuning "if there is a noticeable performance drop
observed due to differences in data distributions ... (namely
out-of-distribution, short as OOD)". This module operationalizes that
trigger two ways:

* **statistical drift** (:class:`WorkloadDriftDetector`) — fit the training
  workload's window-statistics envelope (rate, CV², lag-1 ACF, tail
  quantile ratio) and flag live windows falling outside it. Cheap enough to
  run on every window, no simulation needed.
* **performance drift** (:func:`prediction_drift`) — the literal "noticeable
  performance drop": compare the surrogate's recent prediction error
  (via coupled simulation) against its validation-time error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrival.window import sliding_windows


def window_statistics(windows: np.ndarray) -> np.ndarray:
    """Per-window drift features: log mean inter-arrival, CV², lag-1 ACF,
    and the p99/p50 tail ratio. Shape ``(n_windows, 4)``."""
    w = np.atleast_2d(np.asarray(windows, dtype=float))
    mean = np.maximum(w.mean(axis=1), 1e-12)
    std = w.std(axis=1)
    cv2 = (std / mean) ** 2
    centered = w - mean[:, None]
    denom = np.maximum((centered**2).sum(axis=1), 1e-12)
    rho1 = (centered[:, :-1] * centered[:, 1:]).sum(axis=1) / denom
    q50 = np.maximum(np.percentile(w, 50, axis=1), 1e-12)
    q99 = np.percentile(w, 99, axis=1)
    return np.column_stack([np.log(mean), cv2, rho1, q99 / q50])


@dataclass
class WorkloadDriftDetector:
    """Envelope-based OOD detector over window statistics.

    ``fit`` learns per-feature quantile bounds (with a relative margin) on
    the training workload; ``score`` returns the fraction of features of a
    live window outside the envelope, and ``is_drifted`` thresholds it.
    """

    margin: float = 0.25
    lower_q: float = 1.0
    upper_q: float = 99.0
    #: Fraction of features outside the envelope that counts as drift; each
    #: feature is independently diagnostic (a pure rate shift only moves the
    #: rate feature), so one of four suffices by default.
    threshold: float = 0.25
    lo_: np.ndarray | None = None
    hi_: np.ndarray | None = None
    #: Window length the envelope was fitted at. The ACF/tail features are
    #: not length-invariant, so ``score`` validates live windows against it.
    window_length_: int | None = None

    def fit(self, training_interarrivals: np.ndarray, window_length: int,
            stride: int | None = None) -> "WorkloadDriftDetector":
        """Learn the envelope from sliding windows of the training data."""
        x = np.asarray(training_interarrivals, dtype=float)
        stride = stride if stride is not None else max(1, window_length // 2)
        windows = sliding_windows(x, window_length, stride)
        if len(windows) < 10:
            raise ValueError(
                f"need at least 10 training windows, got {len(windows)}"
            )
        stats = window_statistics(windows)
        lo = np.percentile(stats, self.lower_q, axis=0)
        hi = np.percentile(stats, self.upper_q, axis=0)
        span = np.maximum(hi - lo, 1e-9)
        self.lo_ = lo - self.margin * span
        self.hi_ = hi + self.margin * span
        self.window_length_ = int(window_length)
        return self

    def score(self, window: np.ndarray) -> float:
        """Fraction of drift features outside the training envelope."""
        if self.lo_ is None or self.hi_ is None:
            raise RuntimeError("detector has not been fitted")
        w = np.asarray(window, dtype=float)
        if self.window_length_ is not None and w.shape[-1] != self.window_length_:
            raise ValueError(
                f"window length {w.shape[-1]} does not match the envelope's "
                f"fitted length {self.window_length_}"
            )
        stats = window_statistics(w)[0]
        outside = (stats < self.lo_) | (stats > self.hi_)
        return float(outside.mean())

    def is_drifted(self, window: np.ndarray) -> bool:
        """True when the window looks out-of-distribution (fine-tune!)."""
        return self.score(window) >= self.threshold

    # ------------------------------------------------------------ state export
    def get_state(self) -> dict:
        """Snapshot the fitted envelope (for serving-runtime checkpoints).

        The detector can be refit mid-run (drift-triggered retraining), so
        a crash-safe resume must restore the envelope that was live at the
        snapshot, not the one the detector was constructed with.
        """
        return {
            "margin": self.margin,
            "lower_q": self.lower_q,
            "upper_q": self.upper_q,
            "threshold": self.threshold,
            "lo": None if self.lo_ is None else self.lo_.copy(),
            "hi": None if self.hi_ is None else self.hi_.copy(),
            "window_length": self.window_length_,
        }

    def set_state(self, state: dict) -> "WorkloadDriftDetector":
        """Restore a :meth:`get_state` snapshot (bit-exact envelope)."""
        for name in ("margin", "lower_q", "upper_q", "threshold",
                     "window_length"):
            if name not in state:
                raise ValueError(f"drift-detector state is missing {name!r}")
        for name in ("margin", "lower_q", "upper_q", "threshold"):
            setattr(self, name, float(state[name]))
        lo, hi = state.get("lo"), state.get("hi")
        self.lo_ = None if lo is None else np.asarray(lo, dtype=float).copy()
        self.hi_ = None if hi is None else np.asarray(hi, dtype=float).copy()
        wl = state["window_length"]
        self.window_length_ = None if wl is None else int(wl)
        return self


def prediction_drift(
    recent_error: float,
    baseline_error: float,
    tolerance: float = 2.0,
) -> bool:
    """The literal §III-D trigger: the surrogate's recent coupled-simulation
    error exceeds its validation-time error by more than ``tolerance``×."""
    if baseline_error < 0 or recent_error < 0:
        raise ValueError("errors must be non-negative")
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1, got {tolerance}")
    return recent_error > tolerance * max(baseline_error, 1e-12)
