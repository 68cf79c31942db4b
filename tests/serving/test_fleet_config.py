"""Fleet config file schema: load, validate, build, and error paths.

Every rejection must name the *path* of the offending field
(``endpoints[1].slo: must be > 0``) so the CLI's exit-2 message tells
the operator exactly what to fix.
"""

import json
import math

import numpy as np
import pytest

from repro.serving import ConfigError, FleetEngine, load_fleet_config
from repro.serving.fleet_config import validate_fleet_config

pytestmark = [pytest.mark.serving, pytest.mark.fleet]


def valid_doc():
    return {
        "max_containers": 6,
        "split_seed": 3,
        "scheduler": {"interval_s": 5.0, "min_history": 16},
        "endpoints": [
            {"name": "chat", "memory_mb": 2048, "batch_size": 8,
             "timeout": 0.05, "slo": 0.15, "share": 0.7},
            {"name": "embed", "memory_mb": 1024, "batch_size": 16,
             "timeout": 0.02, "slo": 0.05, "share": 0.3,
             "chooser": "batch", "decision_interval_s": 10.0,
             "keep_alive_s": 30.0, "max_containers": 2,
             "max_queued_batches": 4},
        ],
    }


def write(tmp_path, doc):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadAndBuild:
    def test_valid_document_round_trips(self, tmp_path):
        cfg = load_fleet_config(write(tmp_path, valid_doc()))
        assert [ep.name for ep in cfg.endpoints] == ["chat", "embed"]
        assert cfg.max_containers == 6
        assert cfg.split_seed == 3
        assert cfg.scheduler_interval_s == 5.0
        assert cfg.scheduler_min_history == 16
        chat, embed = cfg.endpoints
        assert chat.config.memory_mb == 2048.0 and chat.config.batch_size == 8
        assert chat.pool.keep_alive_s == math.inf  # default: never expire
        assert cfg.choosers == ("none", "batch")
        assert embed.pool.max_queued_batches == 4

    def test_build_produces_runnable_engine(self, tmp_path):
        cfg = load_fleet_config(write(tmp_path, valid_doc()))
        engine = cfg.build()
        assert isinstance(engine, FleetEngine)
        rng = np.random.default_rng(0)
        ts = np.cumsum(rng.exponential(1 / 200.0, size=400))
        log = engine.run(ts)  # shares route the single trace
        assert log.n_requests == 400
        assert set(log.endpoints) == {"chat", "embed"}

    def test_build_invokes_factories(self, tmp_path):
        cfg = load_fleet_config(write(tmp_path, valid_doc()))
        seen_platforms, seen_choosers = [], []

        def platform_factory(ep):
            seen_platforms.append(ep.name)
            return None

        def chooser_factory(ep, platform):
            seen_choosers.append(ep.chooser)
            return None

        cfg.build(platform_factory=platform_factory,
                  chooser_factory=chooser_factory)
        assert seen_platforms == ["chat", "embed"]
        assert seen_choosers == ["batch"]  # "none" endpoints skipped

    def test_prewarm_round_trips(self, tmp_path):
        doc = valid_doc()
        doc["endpoints"][0]["prewarm"] = {"interval_s": 0.5, "headroom": 2.0,
                                          "window": 32, "retire": True}
        cfg = load_fleet_config(write(tmp_path, doc))
        pw = cfg.endpoints[0].prewarm
        assert pw is not None
        assert pw.interval_s == 0.5 and pw.headroom == 2.0
        assert pw.window == 32 and pw.retire is True
        assert pw.horizon_s is None and pw.max_per_tick is None
        # JSON cannot name a fitted arrival model: always empirical.
        assert type(pw.forecaster).__name__ == "EmpiricalRateForecaster"
        assert cfg.endpoints[1].prewarm is None

    def test_prewarm_defaults(self, tmp_path):
        doc = valid_doc()
        doc["endpoints"][1]["prewarm"] = {}
        cfg = load_fleet_config(write(tmp_path, doc))
        pw = cfg.endpoints[1].prewarm
        assert pw.interval_s == 1.0 and pw.headroom == 1.0
        assert pw.window == 256 and pw.retire is False

    def test_build_threads_prewarm_to_spec(self, tmp_path):
        doc = valid_doc()
        doc["endpoints"][0]["prewarm"] = {"interval_s": 0.5}
        cfg = load_fleet_config(write(tmp_path, doc))
        engine = cfg.build()
        by_name = {spec.name: spec for spec in engine.endpoints}
        assert by_name["chat"].prewarm is cfg.endpoints[0].prewarm
        assert by_name["embed"].prewarm is None

    def test_minimal_document(self, tmp_path):
        doc = {"endpoints": [{"name": "solo", "memory_mb": 1024,
                              "batch_size": 4, "timeout": 0.0}]}
        cfg = load_fleet_config(write(tmp_path, doc))
        assert cfg.max_containers is None
        assert cfg.scheduler_interval_s is None
        assert cfg.endpoints[0].slo == 0.1


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_fleet_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_fleet_config(path)


class TestSchemaErrors:
    def reject(self, doc, pattern):
        with pytest.raises(ConfigError, match=pattern):
            validate_fleet_config(doc)

    def test_non_object_document(self):
        self.reject([1, 2], "must be a JSON object")

    def test_missing_endpoints(self):
        self.reject({}, "endpoints: is required")
        self.reject({"endpoints": []}, "non-empty array")

    def test_unknown_top_level_key(self):
        doc = valid_doc()
        doc["max_continers"] = 3  # typo must not become a silent no-op
        self.reject(doc, r"unknown keys \['max_continers'\]")

    def test_missing_endpoint_name(self):
        doc = valid_doc()
        del doc["endpoints"][1]["name"]
        self.reject(doc, r"endpoints\[1\]\.name: is required")

    def test_dotted_endpoint_name(self):
        doc = valid_doc()
        doc["endpoints"][0]["name"] = "a.b"
        self.reject(doc, r"endpoints\[0\]\.name: must not contain")

    @pytest.mark.parametrize("name", ["prewarm", "gen", "outage", "degrade"])
    def test_engine_namespace_endpoint_name(self, name):
        doc = valid_doc()
        doc["endpoints"][1]["name"] = name
        self.reject(doc, r"endpoints\[1\]\.name: must not be one of")

    def test_bad_batch_size(self):
        doc = valid_doc()
        doc["endpoints"][0]["batch_size"] = 0
        self.reject(doc, r"endpoints\[0\]\.batch_size: must be >= 1")
        doc["endpoints"][0]["batch_size"] = 2.5
        self.reject(doc, r"endpoints\[0\]\.batch_size: must be an integer")
        doc["endpoints"][0]["batch_size"] = True  # bools are not integers
        self.reject(doc, r"endpoints\[0\]\.batch_size: must be an integer")

    def test_bad_numbers(self):
        doc = valid_doc()
        doc["endpoints"][0]["slo"] = 0
        self.reject(doc, r"endpoints\[0\]\.slo: must be > 0")
        doc = valid_doc()
        doc["endpoints"][0]["memory_mb"] = "big"
        self.reject(doc, r"endpoints\[0\]\.memory_mb: must be a number")
        doc = valid_doc()
        doc["endpoints"][0]["timeout"] = float("nan")
        self.reject(doc, r"endpoints\[0\]\.timeout: must be finite")

    def test_percentile_over_100(self):
        doc = valid_doc()
        doc["endpoints"][1]["percentile"] = 101
        self.reject(doc, r"endpoints\[1\]\.percentile: must be in \(0, 100\]")

    def test_unknown_chooser(self):
        doc = valid_doc()
        doc["endpoints"][0]["chooser"] = "magic"
        self.reject(doc, r"endpoints\[0\]\.chooser: must be one of")

    def test_duplicate_names(self):
        doc = valid_doc()
        doc["endpoints"][1]["name"] = "chat"
        self.reject(doc, "names must be unique.*chat")

    def test_mixed_shares(self):
        doc = valid_doc()
        del doc["endpoints"][1]["share"]
        self.reject(doc, "every endpoint has a share or none.*embed")

    def test_share_out_of_range(self):
        doc = valid_doc()
        doc["endpoints"][0]["share"] = 1.5
        self.reject(doc, r"endpoints\[0\]\.share: must be in \(0, 1\]")
        doc["endpoints"][0]["share"] = 0
        self.reject(doc, r"endpoints\[0\]\.share: must be in \(0, 1\]")

    def test_bad_scheduler(self):
        doc = valid_doc()
        doc["scheduler"] = "fast"
        self.reject(doc, "scheduler: must be an object")
        doc["scheduler"] = {"interval_s": 0}
        self.reject(doc, r"scheduler\.interval_s: must be > 0")
        doc["scheduler"] = {"cadence": 5}
        self.reject(doc, r"scheduler: unknown keys \['cadence'\]")
        doc["scheduler"] = {}
        self.reject(doc, r"scheduler\.interval_s: is required")

    def test_bad_max_containers(self):
        doc = valid_doc()
        doc["max_containers"] = 0
        self.reject(doc, "max_containers: must be >= 1")

    def test_bad_prewarm(self):
        doc = valid_doc()
        doc["endpoints"][0]["prewarm"] = "fast"
        self.reject(doc, r"endpoints\[0\]\.prewarm: must be an object")
        doc["endpoints"][0]["prewarm"] = {"interval_s": 0}
        self.reject(doc, r"endpoints\[0\]\.prewarm\.interval_s: must be > 0")
        doc["endpoints"][0]["prewarm"] = {"retire": 1}
        self.reject(doc, r"endpoints\[0\]\.prewarm\.retire: must be a boolean")
        doc["endpoints"][0]["prewarm"] = {"window": 0}
        self.reject(doc, r"endpoints\[0\]\.prewarm\.window: must be >= 1")
        doc["endpoints"][0]["prewarm"] = {"cadence": 5}
        self.reject(doc,
                    r"endpoints\[0\]\.prewarm: unknown keys \['cadence'\]")

    def test_unknown_endpoint_key(self):
        doc = valid_doc()
        doc["endpoints"][0]["qps_limit"] = 10
        self.reject(doc, r"endpoints\[0\]: unknown keys \['qps_limit'\]")
