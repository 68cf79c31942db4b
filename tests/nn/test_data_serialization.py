"""Tests for datasets, data loaders, and the surrogate checkpoint format
(:func:`repro.core.save_trained` / :func:`repro.core.load_trained`)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import load_trained, save_trained
from repro.nn.data import ArrayDataset, DataLoader, train_val_split
from repro.nn.layers import Linear

#: The committed decision-benchmark model: a small real checkpoint.
COMMITTED = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "surrogate.npz"


@pytest.fixture(scope="module")
def trained():
    return load_trained(COMMITTED)


class TestArrayDataset:
    def test_length_and_indexing(self):
        ds = ArrayDataset(np.arange(10), np.arange(10) * 2)
        assert len(ds) == 10
        x, y = ds[np.array([1, 3])]
        np.testing.assert_allclose(x, [1, 3])
        np.testing.assert_allclose(y, [2, 6])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.arange(5), np.arange(6))

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset()


class TestTrainValSplit:
    def test_partition_sizes(self):
        ds = ArrayDataset(np.arange(100))
        train, val = train_val_split(ds, val_fraction=0.2, seed=0)
        assert len(train) == 80 and len(val) == 20

    def test_disjoint_and_complete(self):
        ds = ArrayDataset(np.arange(50))
        train, val = train_val_split(ds, val_fraction=0.3, seed=1)
        merged = np.sort(np.concatenate([train.arrays[0], val.arrays[0]]))
        np.testing.assert_allclose(merged, np.arange(50))

    def test_invalid_fraction(self):
        ds = ArrayDataset(np.arange(10))
        with pytest.raises(ValueError):
            train_val_split(ds, val_fraction=0.0)


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = ArrayDataset(np.arange(23))
        dl = DataLoader(ds, batch_size=5, shuffle=True, seed=0)
        seen = np.concatenate([b[0] for b in dl])
        np.testing.assert_allclose(np.sort(seen), np.arange(23))
        assert len(dl) == 5

    def test_drop_last(self):
        ds = ArrayDataset(np.arange(23))
        dl = DataLoader(ds, batch_size=5, drop_last=True, seed=0)
        batches = list(dl)
        assert len(batches) == 4
        assert all(len(b[0]) == 5 for b in batches)

    def test_no_shuffle_preserves_order(self):
        ds = ArrayDataset(np.arange(10))
        dl = DataLoader(ds, batch_size=4, shuffle=False)
        first = next(iter(dl))[0]
        np.testing.assert_allclose(first, [0, 1, 2, 3])

    def test_shuffle_varies_across_epochs(self):
        ds = ArrayDataset(np.arange(100))
        dl = DataLoader(ds, batch_size=100, shuffle=True, seed=0)
        e1 = next(iter(dl))[0]
        e2 = next(iter(dl))[0]
        assert not np.array_equal(e1, e2)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(ArrayDataset(np.arange(3)), batch_size=0)


class TestFloat32Checkpoints:
    """Float64 archives written before the models became float32 still load,
    into float32 parameters."""

    def test_float64_archive_loads_as_float32(self, tmp_path):
        rng = np.random.default_rng(4)
        state = {"weight": rng.normal(size=(4, 8)), "bias": rng.normal(size=8)}
        path = tmp_path / "old.npz"
        np.savez(path, **state)
        net = Linear(4, 8, seed=0)
        with np.load(path) as archive:
            net.load_state_dict({k: archive[k] for k in archive.files})
        for name, p in net.named_parameters():
            assert p.dtype == np.float32
            np.testing.assert_array_equal(p.data, state[name].astype(np.float32))

    def test_float32_roundtrip_is_exact(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        with np.load(path) as archive:
            assert all(archive[k].dtype == np.float32
                       for k in archive.files if k.startswith("model."))
        clone = load_trained(path)
        for (_, a), (_, b) in zip(trained.model.named_parameters(),
                                  clone.model.named_parameters()):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)

    def test_committed_decision_model_loads_as_float32(self):
        from repro import core

        path = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "surrogate.npz"
        trained = core.load_trained(path)
        with np.load(path) as archive:
            for name, p in trained.model.named_parameters():
                assert p.dtype == np.float32, name
                np.testing.assert_array_equal(
                    p.data, archive[f"model.{name}"].astype(np.float32))


class TestSerializationHardening:
    """Actionable load errors and atomic saves."""

    def test_unreadable_file_is_a_clear_error(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04 truncated zip")
        with pytest.raises(ValueError, match="cannot read checkpoint"):
            load_trained(path)

    def test_missing_file_is_a_clear_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read checkpoint"):
            load_trained(tmp_path / "nope.npz")

    def test_save_is_atomic(self, trained, tmp_path):
        # Overwriting an existing checkpoint leaves no temp litter, and the
        # result is the complete new archive.
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        new = load_trained(path)
        new.model.head.fc2.bias.data += 1.0
        save_trained(new, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        np.testing.assert_array_equal(
            load_trained(path).model.head.fc2.bias.data,
            new.model.head.fc2.bias.data)

    def test_save_without_npz_suffix_loads_from_the_same_path(
            self, trained, tmp_path):
        path = tmp_path / "model"
        save_trained(trained, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
        loaded = load_trained(path)
        assert loaded.model.hyperparameters == trained.model.hyperparameters
