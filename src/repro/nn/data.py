"""Minimal dataset/dataloader machinery for training the surrogate.

A :class:`ArrayDataset` holds aligned NumPy arrays; :class:`DataLoader`
yields shuffled mini-batches of raw arrays (tensors are created inside the
training loop so the tape never crosses batch boundaries).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import as_rng


class ArrayDataset:
    """Aligned arrays with a common first (sample) axis."""

    def __init__(self, *arrays: np.ndarray) -> None:
        if not arrays:
            raise ValueError("ArrayDataset requires at least one array")
        arrays = tuple(np.asarray(a) for a in arrays)
        n = len(arrays[0])
        for a in arrays[1:]:
            if len(a) != n:
                raise ValueError(
                    f"all arrays must share the sample axis; got lengths {[len(x) for x in arrays]}"
                )
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, idx) -> tuple[np.ndarray, ...]:
        return tuple(a[idx] for a in self.arrays)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(*(a[indices] for a in self.arrays))


def train_val_split(
    dataset: ArrayDataset,
    val_fraction: float = 0.2,
    seed: int | None | np.random.Generator = None,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Random split into train/validation subsets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = as_rng(seed)
    n = len(dataset)
    idx = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ValueError(f"dataset too small ({n}) for val_fraction={val_fraction}")
    return dataset.subset(idx[n_val:]), dataset.subset(idx[:n_val])


class DataLoader:
    """Iterate mini-batches of a dataset, optionally shuffled each epoch."""

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 8,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = as_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            yield self.dataset[idx]
