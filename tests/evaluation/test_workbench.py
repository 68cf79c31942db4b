"""Tests for the cached experiment workbench (tiny settings, tmp cache)."""

import numpy as np
import pytest

from repro.evaluation import workbench
from repro.evaluation.workbench import Workbench, WorkbenchSettings

TINY = WorkbenchSettings(
    seq_len=16,
    n_train_samples=60,
    epochs=2,
    batch_size=16,
    patience=2,
    n_finetune_samples=40,
    finetune_epochs=1,
    n_segments=3,
    segment_duration=10.0,
    train_segments=2,
    memories=(512.0, 1792.0),
    batch_sizes=(1, 8),
    timeouts=(0.0, 0.05),
)


@pytest.fixture()
def bench(tmp_path):
    return Workbench(settings=TINY, cache_dir=tmp_path)


class TestWorkbench:
    def test_traces_cached_in_memory(self, bench):
        a = bench.trace("azure")
        assert bench.trace("azure") is a
        assert a.n_segments == 3

    def test_grid_respects_settings(self, bench):
        mems = {c.memory_mb for c in bench.grid}
        assert mems == {512.0, 1792.0}

    def test_base_model_trains_and_caches_to_disk(self, bench, tmp_path):
        model = bench.base_model()
        files = list(bench.cache_dir.glob("base.npz"))
        assert len(files) == 1
        # A new workbench over the same cache loads rather than retrains.
        other = Workbench(settings=TINY, cache_dir=tmp_path)
        loaded = other.base_model()
        seq = np.abs(np.random.default_rng(0).normal(size=(2, 16))) + 0.01
        feats = np.array([[512.0, 8, 0.05]] * 2)
        np.testing.assert_allclose(
            model.predict(seq, feats), loaded.predict(seq, feats), atol=1e-12
        )

    def test_finetuned_model_distinct_from_base(self, bench):
        base = bench.base_model()
        tuned = bench.finetuned_model("alibaba")
        seq = np.abs(np.random.default_rng(1).normal(size=(2, 16))) + 0.01
        feats = np.array([[512.0, 8, 0.05]] * 2)
        assert not np.allclose(base.predict(seq, feats), tuned.predict(seq, feats))
        # Fine-tuning must not mutate the cached base model.
        again = bench.base_model()
        np.testing.assert_allclose(
            base.predict(seq, feats), again.predict(seq, feats)
        )

    def test_finetune_only_for_ood_traces(self, bench):
        with pytest.raises(ValueError):
            bench.finetuned_model("azure")

    def test_fingerprint_distinguishes_settings(self):
        a = WorkbenchSettings()
        b = WorkbenchSettings(seq_len=128)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == WorkbenchSettings().fingerprint()

    def test_fingerprint_names_the_checkpoint_format(self, monkeypatch):
        before = WorkbenchSettings().fingerprint()
        monkeypatch.setattr(workbench, "CHECKPOINT_FORMAT",
                            workbench.CHECKPOINT_FORMAT + 1)
        assert WorkbenchSettings().fingerprint() != before

    def test_training_history_split(self, bench):
        hist = bench.azure_training_history()
        assert hist.size > 50
        assert np.all(hist >= 0)
