"""Synthetic workload traces statistically matched to the paper's four
evaluation workloads (§IV-A, Fig. 4/5).

The real Azure/Twitter/Alibaba traces are unavailable offline; these
generators reproduce the three statistics the evaluation actually relies on
(see DESIGN.md §1):

* **Azure-like** — diurnal rate profile with moderate, time-varying
  burstiness (IDC tens, variable over hours).
* **Twitter-like** — statistically similar to Azure but milder and steadier
  (IDC ≈ 4 band) so it serves as the *unseen but in-distribution* test set.
* **Alibaba-like** — MLaaS on-off bursts with sharp rate swings between
  near-idle and hot hours (IDC hundreds; strongly out-of-distribution).
* **MAP-generated synthetic** — 24 independent MMPP(2) segments with widely
  varying burstiness, the paper's most challenging workload.

A "hour" in the paper is one :attr:`Trace.segment_duration` of simulated
time here (time compression is a pure rescaling; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrival.mmpp import mmpp2_with_burstiness
from repro.arrival.stats import binned_rate, idc, interarrivals
from repro.utils.rng import as_rng, spawn_rngs


@dataclass(frozen=True)
class Trace:
    """An arrival trace split into equal-duration segments ("hours")."""

    name: str
    timestamps: np.ndarray
    segment_duration: float
    n_segments: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.size and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be sorted")
        if self.segment_duration <= 0:
            raise ValueError("segment_duration must be > 0")
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        object.__setattr__(self, "timestamps", ts)

    @property
    def duration(self) -> float:
        return self.segment_duration * self.n_segments

    def segment(self, index: int, relative: bool = True) -> np.ndarray:
        """Timestamps of segment ``index`` (0-based); ``relative`` shifts
        them to start at the segment origin."""
        if not 0 <= index < self.n_segments:
            raise IndexError(f"segment index {index} out of range [0, {self.n_segments})")
        lo = index * self.segment_duration
        hi = lo + self.segment_duration
        i0, i1 = np.searchsorted(self.timestamps, [lo, hi])
        seg = self.timestamps[i0:i1]
        return seg - lo if relative else seg

    def segment_interarrivals(self, index: int) -> np.ndarray:
        return interarrivals(self.segment(index))

    def segment_rate(self, index: int) -> float:
        return self.segment(index).size / self.segment_duration

    def segment_idc(self, index: int) -> float:
        x = self.segment_interarrivals(index)
        return idc(x) if x.size >= 3 else 1.0

    def rate_series(self, bins_per_segment: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Binned arrival rate over the whole trace (Fig. 4 series)."""
        width = self.segment_duration / bins_per_segment
        return binned_rate(self.timestamps, width, t_start=0.0, t_end=self.duration)

    def idc_series(self) -> np.ndarray:
        """Per-segment IDC (Fig. 5 series)."""
        return np.array([self.segment_idc(i) for i in range(self.n_segments)])

    def split(self, at_segment: int) -> tuple["Trace", "Trace"]:
        """Split into two traces at a segment boundary (train/test split)."""
        if not 0 < at_segment < self.n_segments:
            raise ValueError(f"at_segment must be in (0, {self.n_segments})")
        cut = at_segment * self.segment_duration
        i = int(np.searchsorted(self.timestamps, cut))
        head = Trace(self.name + "[:%d]" % at_segment, self.timestamps[:i],
                     self.segment_duration, at_segment, dict(self.metadata))
        tail = Trace(self.name + "[%d:]" % at_segment, self.timestamps[i:] - cut,
                     self.segment_duration, self.n_segments - at_segment, dict(self.metadata))
        return head, tail


def _assemble(name: str, segments: list[np.ndarray], segment_duration: float,
              metadata: dict) -> Trace:
    parts = [seg + i * segment_duration for i, seg in enumerate(segments)]
    ts = np.concatenate(parts) if parts else np.empty(0)
    return Trace(name, ts, segment_duration, len(segments), metadata)


def azure_like(
    seed: int | None | np.random.Generator = 0,
    n_segments: int = 24,
    segment_duration: float = 60.0,
    base_rate: float = 120.0,
) -> Trace:
    """Azure-Functions-like trace: diurnal profile, moderate burstiness."""
    rng = as_rng(seed)
    child = spawn_rngs(rng, n_segments)
    segments = []
    rates = []
    for i in range(n_segments):
        diurnal = 1.0 + 0.55 * np.sin(2 * np.pi * (i / n_segments - 0.25))
        wiggle = rng.uniform(0.75, 1.3)
        rate = base_rate * diurnal * wiggle
        burst = rng.uniform(1.4, 1.9)
        proc = mmpp2_with_burstiness(rate, burst, cycle_time=rng.uniform(1.0, 2.5),
                                     duty=rng.uniform(0.4, 0.5))
        segments.append(proc.sample(duration=segment_duration, seed=child[i]))
        rates.append(rate)
    return _assemble("azure", segments, segment_duration, {"rates": rates})


def twitter_like(
    seed: int | None | np.random.Generator = 1,
    n_segments: int = 24,
    segment_duration: float = 60.0,
    base_rate: float = 140.0,
) -> Trace:
    """Twitter-stream-like trace: statistically similar to Azure but milder
    and steadier (IDC ≈ 4 band) — the in-distribution unseen test set."""
    rng = as_rng(seed)
    child = spawn_rngs(rng, n_segments)
    segments = []
    for i in range(n_segments):
        diurnal = 1.0 + 0.35 * np.sin(2 * np.pi * (i / n_segments - 0.2))
        rate = base_rate * diurnal * rng.uniform(0.9, 1.1)
        proc = mmpp2_with_burstiness(rate, rng.uniform(1.2, 1.35),
                                     cycle_time=rng.uniform(0.8, 1.5),
                                     duty=0.5)
        segments.append(proc.sample(duration=segment_duration, seed=child[i]))
    return _assemble("twitter", segments, segment_duration, {})


def alibaba_like(
    seed: int | None | np.random.Generator = 2,
    n_segments: int = 24,
    segment_duration: float = 60.0,
    base_rate: float = 100.0,
) -> Trace:
    """Alibaba-PAI-like MLaaS trace: sharp swings between near-idle and hot
    segments with strong on-off burstiness (high, variable IDC; OOD)."""
    rng = as_rng(seed)
    child = spawn_rngs(rng, n_segments)
    segments = []
    # Alternate calm/hot regimes with abrupt jumps; the 4th/6th-style peaks
    # (§IV-C) follow flat periods, which is what defeats BATCH's fitting.
    # The first segment starts hot (as in the paper's Fig. 4c), so the
    # observable fine-tuning hour contains the bursty regime.
    regime = rng.uniform(1.2, 2.2)
    for i in range(n_segments):
        if i > 0 and rng.random() < 0.4:  # regime switch
            regime = rng.uniform(0.08, 1.0) ** 2 * 4.0  # heavy-tailed multiplier
        rate = base_rate * max(regime, 0.05) * rng.uniform(0.7, 1.4)
        burst = rng.uniform(2.5, 4.0)
        proc = mmpp2_with_burstiness(rate, burst, cycle_time=rng.uniform(4.0, 10.0),
                                     duty=rng.uniform(0.15, 0.3))
        segments.append(proc.sample(duration=segment_duration, seed=child[i]))
    return _assemble("alibaba", segments, segment_duration, {})


def map_synthetic(
    seed: int | None | np.random.Generator = 3,
    n_segments: int = 24,
    segment_duration: float = 60.0,
    base_rate: float = 150.0,
) -> Trace:
    """The paper's MAP-generated synthetic workload: 24 unique MMPP
    segments with significant variation and on-off behaviour (§IV-A.2)."""
    rng = as_rng(seed)
    child = spawn_rngs(rng, n_segments)
    segments = []
    for i in range(n_segments):
        # Fluctuate sharply between low and high intensities.
        level = rng.choice([0.15, 0.4, 1.0, 2.0], p=[0.3, 0.25, 0.3, 0.15])
        rate = base_rate * level * rng.uniform(0.8, 1.25)
        burst = rng.uniform(3.0, 6.0)
        proc = mmpp2_with_burstiness(rate, burst, cycle_time=rng.uniform(5.0, 15.0),
                                     duty=rng.uniform(0.1, 0.2))
        segments.append(proc.sample(duration=segment_duration, seed=child[i]))
    return _assemble("synthetic", segments, segment_duration, {})


STANDARD_TRACES = {
    "azure": azure_like,
    "twitter": twitter_like,
    "alibaba": alibaba_like,
    "synthetic": map_synthetic,
}
