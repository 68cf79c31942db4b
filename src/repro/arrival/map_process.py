"""Markovian Arrival Processes (MAPs).

A MAP is defined by two matrices ``(D0, D1)``: ``D0`` holds the rates of
hidden (non-arrival) transitions plus the diagonal of total outflow, ``D1``
the rates of transitions that generate an arrival. ``D0 + D1`` is the
generator of the background CTMC. MAPs capture *bursty*, autocorrelated
arrival streams and are the workhorse of both the paper's synthetic trace
(§IV-A) and the BATCH baseline's workload model.

References: Casale et al., "How to parameterize models with bursty
workloads" (SIGMETRICS PER 2008); Riska & Smirni, "M/G/1-type Markov
processes: a tutorial".
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_finite

#: Steps of the background CTMC per block of random draws.
_BLOCK = 8192
#: Steps per chunk of :func:`_phase_walk`; a block is ``_BLOCK // _CHUNK``
#: chunks.
_CHUNK = 64


class MAP:
    """A Markovian Arrival Process ``(D0, D1)``.

    Parameters are validated on construction: ``D0`` must have non-negative
    off-diagonal entries and a strictly negative diagonal, ``D1`` must be
    non-negative, the rows of ``D0 + D1`` must sum to zero, and every phase
    must reach a phase with a positive ``D1`` entry through positive ``D0``
    off-diagonals (or no arrival might ever come).
    """

    def __init__(self, d0: np.ndarray, d1: np.ndarray) -> None:
        d0 = np.asarray(d0, dtype=float)
        d1 = np.asarray(d1, dtype=float)
        if d0.ndim != 2 or d0.shape[0] != d0.shape[1]:
            raise ValueError(f"D0 must be square, got shape {d0.shape}")
        if d1.shape != d0.shape:
            raise ValueError(f"D1 shape {d1.shape} must match D0 shape {d0.shape}")
        check_finite(d0, "D0")
        check_finite(d1, "D1")
        off = d0 - np.diag(np.diag(d0))
        if np.any(off < -1e-12):
            raise ValueError("D0 off-diagonal entries must be non-negative")
        if np.any(np.diag(d0) >= 0):
            raise ValueError("D0 diagonal entries must be negative")
        if np.any(d1 < -1e-12):
            raise ValueError("D1 entries must be non-negative")
        rowsums = (d0 + d1).sum(axis=1)
        if not np.allclose(rowsums, 0.0, atol=1e-8):
            raise ValueError(f"rows of D0 + D1 must sum to zero, got {rowsums}")
        # Every phase must reach an arrival, through positive D0
        # off-diagonals, or sampling by count would never return.
        reach = (d1 > 0).any(axis=1)
        for _ in range(len(reach)):
            reach |= ((off > 0) & reach).any(axis=1)
        if not reach.all():
            raise ValueError(f"phases {np.flatnonzero(~reach).tolist()} cannot reach "
                             "a positive D1 entry through positive D0 off-diagonals")
        self.d0 = d0
        self.d1 = np.clip(d1, 0.0, None)

    # ------------------------------------------------------------ structure
    @property
    def order(self) -> int:
        """Number of phases."""
        return self.d0.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """Generator ``Q = D0 + D1`` of the background CTMC."""
        return self.d0 + self.d1

    def stationary_phase(self) -> np.ndarray:
        """Stationary distribution θ of the background CTMC (θQ = 0)."""
        q = self.generator
        m = self.order
        # Solve θQ = 0 with normalization by replacing one equation.
        a = np.vstack([q.T, np.ones(m)])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        theta, *_ = np.linalg.lstsq(a, b, rcond=None)
        theta = np.clip(theta, 0.0, None)
        return theta / theta.sum()

    def embedded_chain(self) -> np.ndarray:
        """Transition matrix ``P = (-D0)^{-1} D1`` of the phase chain
        embedded at arrival epochs."""
        return np.linalg.solve(-self.d0, self.d1)

    def arrival_phase_distribution(self) -> np.ndarray:
        """Stationary phase distribution π just after an arrival (πP = π)."""
        p = self.embedded_chain()
        m = self.order
        # Solve π(P − I) = 0 with the normalization πᵀ𝟙 = 1 appended.
        a = np.vstack([(p - np.eye(m)).T, np.ones(m)])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise RuntimeError("failed to compute arrival phase distribution")
        return pi / total

    # -------------------------------------------------------------- moments
    def arrival_rate(self) -> float:
        """Long-run arrival rate λ = θ D1 𝟙."""
        return float(self.stationary_phase() @ self.d1 @ np.ones(self.order))

    def interarrival_moment(self, k: int) -> float:
        """Raw k-th moment of the stationary interarrival time:
        E[X^k] = k! · π (−D0)^{−k} 𝟙."""
        if k < 1:
            raise ValueError(f"moment order must be >= 1, got {k}")
        pi = self.arrival_phase_distribution()
        inv = np.linalg.inv(-self.d0)
        acc = pi.copy()
        for _ in range(k):
            acc = acc @ inv
        return float(_factorial(k) * acc.sum())

    def mean_interarrival(self) -> float:
        return self.interarrival_moment(1)

    def scv(self) -> float:
        """Squared coefficient of variation of interarrival times."""
        m1 = self.interarrival_moment(1)
        m2 = self.interarrival_moment(2)
        return m2 / m1**2 - 1.0

    def autocorrelation(self, lags: int) -> np.ndarray:
        """Lag-k autocorrelation ρ_k of interarrival times, k = 1..lags.

        ρ_k = (λ² · π M P^k M 𝟙 − 1) / (2λ² m₂/2 − ... ) — implemented via
        the standard joint-moment identity
        E[X₀ X_k] = π M P^k M 𝟙 with M = (−D0)^{−1}.
        """
        if lags < 1:
            raise ValueError(f"lags must be >= 1, got {lags}")
        pi = self.arrival_phase_distribution()
        m = np.linalg.inv(-self.d0)
        p = self.embedded_chain()
        ones = np.ones(self.order)
        m1 = self.interarrival_moment(1)
        var = self.interarrival_moment(2) - m1**2
        if var <= 0:
            return np.zeros(lags)
        rho = np.empty(lags)
        left = pi @ m
        pk = np.eye(self.order)
        for k in range(1, lags + 1):
            pk = pk @ p
            joint = left @ pk @ m @ ones
            rho[k - 1] = (joint - m1**2) / var
        return rho

    def idi(self, max_lag: int = 200) -> float:
        """Index of dispersion for intervals (the paper's IDC formula):
        (σ²/μ²)(1 + 2 Σ_k ρ_k), truncated at ``max_lag``."""
        rho = self.autocorrelation(max_lag)
        return self.scv() * (1.0 + 2.0 * float(rho.sum()))

    # ------------------------------------------------------------- sampling
    def jump_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Exit rate of each phase and the cumulative distribution of its
        next transition over ``2m`` outcomes: columns ``0..m-1`` hidden
        transitions to each phase, ``m..2m-1`` arrivals into each phase.

        ``__init__`` accepts rows of ``D0 + D1`` up to 1e-8 off zero, so a
        row's total can fall short of 1. Each row is raised to 1.0 from its
        last positive transition on, so every draw in ``[0, 1)`` lands on a
        real transition; draws below the old total keep their outcome.
        """
        m = self.order
        exit_rate = -np.diag(self.d0)
        trans = np.hstack([self.d0 - np.diag(np.diag(self.d0)), self.d1])
        trans = trans / exit_rate[:, None]
        cum = np.cumsum(trans, axis=1)
        last = 2 * m - 1 - np.argmax(trans[:, ::-1] > 0, axis=1)
        tail = np.arange(2 * m) >= last[:, None]
        cum[tail] = np.maximum(cum[tail], 1.0)
        return exit_rate, cum

    def sample(
        self,
        n_arrivals: int | None = None,
        duration: float | None = None,
        seed: int | None | np.random.Generator = None,
        start_phase: int | None = None,
    ) -> np.ndarray:
        """Generate arrival timestamps starting at time 0.

        Exactly one of ``n_arrivals`` / ``duration`` must be given. The
        background CTMC takes one step per exponential and uniform draw;
        both are drawn in blocks of ``_BLOCK``, the first before any step
        and each further one only when the walk needs another step, so the
        draws and the generator's final state are those of a walk that
        steps one event at a time. Within a block:

        * the outcome of every step from every phase is one
          ``np.searchsorted`` per phase over :meth:`jump_cdf`;
        * the phase sequence, the only sequential dependence, is composed
          exactly by :func:`_phase_walk`;
        * times are ``np.cumsum`` of the block's start time and its
          ``exponential / exit_rate`` gaps, which adds left to right, the
          same double additions as ``t += gap`` step by step.

        A step runs while the time before it is ``< duration`` and fewer
        than ``n_arrivals`` have been kept; an arrival is kept iff its time
        is ``< duration``.
        """
        if (n_arrivals is None) == (duration is None):
            raise ValueError("specify exactly one of n_arrivals or duration")
        rng = as_rng(seed)
        m = self.order
        exit_rate, cum = self.jump_cdf()

        if start_phase is None:
            theta = self.stationary_phase()
            phase = int(rng.choice(m, p=theta))
        else:
            if not 0 <= start_phase < m:
                raise ValueError(f"start_phase must be in [0, {m}), got {start_phase}")
            phase = start_phase

        parts: list[np.ndarray] = [np.empty(0)]
        kept = 0
        t = 0.0
        exp_buf = rng.exponential(size=_BLOCK)
        uni_buf = rng.random(size=_BLOCK)
        target_n = n_arrivals if n_arrivals is not None else np.inf
        target_t = duration if duration is not None else np.inf
        steps = np.arange(_BLOCK)
        while kept < target_n and t < target_t:
            if exp_buf is None:  # the previous block is used up
                exp_buf = rng.exponential(size=_BLOCK)
                uni_buf = rng.random(size=_BLOCK)
            outcome = np.stack([np.searchsorted(cum[p], uni_buf) for p in range(m)])
            phases, phase = _phase_walk(outcome % m, phase)
            times = np.cumsum(np.concatenate(([t], exp_buf / exit_rate[phases])))
            t = float(times[-1])
            # Steps run while the time before them is < target_t (a prefix).
            n_run = int(np.searchsorted(times[:-1], target_t))
            keep = np.flatnonzero(
                (outcome[phases[:n_run], steps[:n_run]] >= m) & (times[1:n_run + 1] < target_t))
            if keep.size >= target_n - kept:  # the last kept arrival ends the walk
                keep = keep[:int(np.ceil(target_n - kept))]
                n_run = int(keep[-1]) + 1
            parts.append(times[1:][keep])
            kept += keep.size
            if n_run < _BLOCK:
                break
            exp_buf = None
        return np.concatenate(parts)

    def __repr__(self) -> str:
        return f"MAP(order={self.order}, rate={self.arrival_rate():.4g})"


def _phase_walk(nxt: np.ndarray, phase: int) -> tuple[np.ndarray, int]:
    """Phase before each step of a block, and the phase after it.

    ``nxt[p, i]`` is the phase step ``i`` moves to from phase ``p``. The
    block is cut into chunks of ``_CHUNK`` steps; every chunk is walked
    from every start phase at once, then the chunk starts are chained from
    ``phase`` and each chunk's path is gathered from its true start. Each
    path follows ``nxt`` exactly, so the result is the step-by-step walk.
    """
    m, n = nxt.shape
    chunks = n // _CHUNK
    table = nxt.reshape(m * n)
    offset = np.arange(chunks) * _CHUNK  # first step of each chunk
    state = np.repeat(np.arange(m)[:, None], chunks, axis=1)  # (start phase, chunk)
    path = np.empty((_CHUNK, m, chunks), dtype=nxt.dtype)
    for j in range(_CHUNK):
        path[j] = state
        state = table[state * n + offset + j]
    ends = state.T.tolist()  # ends[c][p]: phase after chunk c entered in p
    starts = []
    for end in ends:
        starts.append(phase)
        phase = end[phase]
    chunk = np.arange(chunks)
    return path[:, starts, chunk].T.reshape(n), phase


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def poisson_map(rate: float) -> MAP:
    """The Poisson process as a 1-phase MAP."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return MAP(np.array([[-rate]]), np.array([[rate]]))


def erlang_map(rate: float, stages: int = 2) -> MAP:
    """Erlang-``stages`` renewal process as a MAP (SCV < 1, no correlation)."""
    if rate <= 0 or stages < 1:
        raise ValueError("rate must be > 0 and stages >= 1")
    nu = rate * stages  # per-stage rate so the mean interarrival is 1/rate
    d0 = np.diag(np.full(stages, -nu)) + np.diag(np.full(stages - 1, nu), k=1)
    d1 = np.zeros((stages, stages))
    d1[-1, 0] = nu
    return MAP(d0, d1)


def hyperexp_map(rate: float, scv: float, balance: float = 0.5) -> MAP:
    """Two-phase hyperexponential renewal process with target SCV > 1.

    Uses balanced means: phase i chosen with prob p_i, rate μ_i, no
    autocorrelation. ``balance`` sets p₁ (0 < balance < 1).
    """
    if scv <= 1.0:
        raise ValueError(f"hyperexponential requires SCV > 1, got {scv}")
    if not 0 < balance < 1:
        raise ValueError(f"balance must be in (0, 1), got {balance}")
    p1 = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))
    p2 = 1.0 - p1
    mu1 = 2.0 * p1 * rate
    mu2 = 2.0 * p2 * rate
    d0 = np.diag([-mu1, -mu2])
    d1 = np.array([[p1 * mu1, p2 * mu1], [p1 * mu2, p2 * mu2]])
    return MAP(d0, d1)
