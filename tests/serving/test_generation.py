"""Token-streaming generation workload (PR 9).

Covers the full stack: the prefill/decode timing model
(:class:`TokenServiceProfile` — the old request-level profile is the
``output_tokens == 1`` special case), the seeded per-request length model
(order- and worker-independent draws), the continuous-batching state
machine and its admission knobs, both engine dispatchers (buffer-mode
bit-identity with the legacy engine; continuous-mode checkpointed run ≡
plain run and crash-restore safety), the goodput/TTFT/TPOT accessors on the log, the
JSON config schema, fleet lanes, the generation labeling path for the
surrogate, and the headline evaluation: continuous batching beats the
size/timeout buffer on goodput at equal-or-lower cost.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.batching.continuous import ContinuousSession, GenRequest
from repro.serverless.generation import (
    DEFAULT_TOKEN_PROFILE,
    TokenLengthModel,
    TokenServiceProfile,
)
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ServiceProfile
from repro.serving import (
    ConfigError,
    EndpointSpec,
    FleetEngine,
    GenerationConfig,
    ServingEngine,
    WarmPoolConfig,
    assert_serving_logs_equal,
    load_generation_config,
    run_with_crashes,
    validate_generation_config,
)
from repro.serving.fleet_config import validate_fleet_config
from repro.telemetry.metrics import MetricsRegistry, use_registry

pytestmark = [pytest.mark.serving, pytest.mark.gen]

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)


def poisson_trace(seed=7, n=2000, lam=200.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def build_engine(generation, keep_alive=30.0, max_containers=64, **kwargs):
    return ServingEngine(
        CONFIG,
        platform=ServerlessPlatform(),
        pool=WarmPoolConfig(keep_alive_s=keep_alive,
                            max_containers=max_containers),
        generation=generation,
        **kwargs,
    )


# ----------------------------------------------------------- timing model
class TestTokenServiceProfile:
    def test_ttft_is_the_request_level_service_time(self):
        """Prefill timing IS the old model — the key identity that makes
        ``output_tokens == 1`` reproduce the legacy engine for free."""
        profile = ServiceProfile()
        token = TokenServiceProfile(profile=profile)
        for memory in (512.0, 1024.0, 2048.0, 4096.0):
            for size in (1, 4, 16):
                assert token.ttft(memory, size) == profile.service_time(
                    memory, size
                )

    def test_tpot_batch_and_memory_scaling(self):
        token = TokenServiceProfile()
        # More memory -> faster decode; bigger batch -> slower per token.
        assert token.tpot(4096.0, 8) < token.tpot(1024.0, 8)
        assert token.tpot(2048.0, 16) > token.tpot(2048.0, 4)

    def test_tpot_formula(self):
        token = TokenServiceProfile(decode_time=0.004, decode_exponent=0.5,
                                    decode_memory_dampening=0.5)
        speedup = token.profile.speedup(2048.0)
        expected = 0.004 * math.sqrt(8) / math.sqrt(speedup)
        assert token.tpot(2048.0, 8) == pytest.approx(expected)

    def test_one_token_generation_is_pure_prefill(self):
        token = DEFAULT_TOKEN_PROFILE
        assert token.generation_time(2048.0, 8, 1) == token.ttft(2048.0, 8)
        more = token.generation_time(2048.0, 8, 5)
        assert more == pytest.approx(
            token.ttft(2048.0, 8) + 4 * token.tpot(2048.0, 8)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenServiceProfile(decode_time=-1.0)
        with pytest.raises(ValueError):
            TokenServiceProfile(decode_exponent=0.0)
        with pytest.raises(ValueError):
            TokenServiceProfile(decode_memory_dampening=1.5)


# ------------------------------------------------------------ length model
class TestTokenLengthModel:
    def test_same_seed_identical_trace(self):
        model = TokenLengthModel()
        p1, o1 = model.sample(500, seed=11)
        p2, o2 = model.sample(500, seed=11)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(o1, o2)
        assert p1.dtype == np.int64 and o1.dtype == np.int64

    def test_different_seeds_differ(self):
        model = TokenLengthModel()
        p1, _ = model.sample(500, seed=11)
        p2, _ = model.sample(500, seed=12)
        assert not np.array_equal(p1, p2)

    def test_per_request_draws_are_order_and_worker_independent(self):
        """Request i's tokens depend only on (seed, i): drawing them one
        at a time, in any order, from any process, matches the batch —
        the property that keeps parallel labeling bit-identical."""
        model = TokenLengthModel()
        prompts, outputs = model.sample(64, seed=3)
        for i in reversed(range(64)):  # deliberately out of order
            assert model.sample_one(3, i) == (prompts[i], outputs[i])

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("model, n", [
        (TokenLengthModel(), 5000),
        # p >= 1/3 takes numpy's search branch; p = 1 always draws 1.
        (TokenLengthModel(prompt_mean=2.0, prompt_max=3, output_mean=1.0,
                          output_max=1), 1000),
        (TokenLengthModel(prompt_mean=8.0, prompt_max=12, output_mean=16.0,
                          output_max=20), 1000),
    ], ids=["default", "search-branch", "caps"])
    def test_sample_matches_numpy_seed_sequence_draws(self, seed, model, n):
        """The oracle for the vectorized seeding: request ``i`` draws from
        ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``."""
        prompts, outputs = model.sample(n, seed)
        expected_prompts = np.empty(n, dtype=np.int64)
        expected_outputs = np.empty(n, dtype=np.int64)
        for i in range(n):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            )
            expected_prompts[i] = min(int(rng.geometric(1.0 / model.prompt_mean)),
                                      model.prompt_max)
            expected_outputs[i] = min(int(rng.geometric(1.0 / model.output_mean)),
                                      model.output_max)
        np.testing.assert_array_equal(prompts, expected_prompts)
        np.testing.assert_array_equal(outputs, expected_outputs)
        assert prompts.dtype == np.int64 and outputs.dtype == np.int64
        if model.prompt_max < 100:
            assert (prompts == model.prompt_max).any()  # the cap binds
            assert (outputs == model.output_max).any()

    def test_sample_one_matches_numpy_for_wide_indices(self):
        model = TokenLengthModel()
        for index in (0, 2**32 - 1, 2**32, 2**40 + 3):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=5, spawn_key=(index,))
            )
            assert model.sample_one(5, index) == (
                min(int(rng.geometric(1.0 / 128.0)), 4096),
                min(int(rng.geometric(1.0 / 16.0)), 1024),
            )

    def test_sample_zero_requests(self):
        prompts, outputs = TokenLengthModel().sample(0, seed=4)
        assert prompts.shape == outputs.shape == (0,)
        assert prompts.dtype == np.int64 and outputs.dtype == np.int64

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TokenLengthModel().sample(3, -1)
        with pytest.raises(ValueError, match="non-negative"):
            TokenLengthModel().sample_one(-(2**70), 0)

    def test_caps_and_minimums(self):
        model = TokenLengthModel(prompt_mean=2.0, prompt_max=4,
                                 output_mean=1.0, output_max=1)
        prompts, outputs = model.sample(2000, seed=0)
        assert prompts.min() >= 1 and prompts.max() <= 4
        np.testing.assert_array_equal(outputs, np.ones(2000, dtype=np.int64))

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenLengthModel(prompt_mean=0.5)
        with pytest.raises(ValueError):
            TokenLengthModel(output_mean=100.0, output_max=10)

    def test_models_compare_by_value(self):
        # The checkpoint fingerprint holds the model itself.
        assert TokenLengthModel() == TokenLengthModel()
        assert TokenLengthModel() != TokenLengthModel(output_mean=8.0)


# ----------------------------------------------------- continuous session
def _req(i, arrival=0.0, prompt=10, out=3):
    return GenRequest(index=i, arrival=arrival, prompt_tokens=prompt,
                      output_tokens=out)


class TestContinuousSession:
    def make(self, batch_size=4, max_batch_tokens=None):
        return ContinuousSession(
            profile=DEFAULT_TOKEN_PROFILE, memory_mb=2048.0,
            batch_size=batch_size, max_batch_tokens=max_batch_tokens,
        )

    def test_prefill_then_decode_then_drain(self):
        from collections import deque

        sess = self.make()
        queue = deque([_req(0, out=2), _req(1, out=1)])
        first = sess.step(queue)
        assert sess.pending_kind == "prefill"
        assert first == DEFAULT_TOKEN_PROFILE.ttft(2048.0, 2)
        second = sess.step(queue)
        # Both prefilled; the one-token request finished at the boundary.
        assert {r.index for r in sess.prefilled} == {0, 1}
        assert [r.index for r in sess.finished] == [1]
        assert sess.pending_kind == "decode"
        assert second == DEFAULT_TOKEN_PROFILE.tpot(2048.0, 1)
        third = sess.step(queue)
        assert [r.index for r in sess.finished] == [0]
        assert third is None
        assert sess.n_served == 2
        assert sess.n_prefills == 1 and sess.n_decodes == 1

    def test_fifo_admission_respects_batch_size(self):
        from collections import deque

        sess = self.make(batch_size=2)
        queue = deque([_req(i) for i in range(5)])
        sess.step(queue)
        assert [r.index for r in sess.pending_admits] == [0, 1]
        assert len(queue) == 3

    def test_prefill_preempts_decode(self):
        from collections import deque

        sess = self.make()
        queue = deque([_req(0, out=5)])
        sess.step(queue)
        sess.step(queue)  # request 0 now decoding
        queue.append(_req(1))
        sess.step(queue)
        assert sess.pending_kind == "prefill"

    def test_token_budget_blocks_joining(self):
        from collections import deque

        sess = self.make(max_batch_tokens=30)
        queue = deque([_req(0, prompt=20, out=5), _req(1, prompt=20, out=5)])
        sess.step(queue)
        assert [r.index for r in sess.pending_admits] == [0]
        assert len(queue) == 1
        # A free slot, but no room in the budget for the waiting request.
        assert sess.slots < sess.batch_size
        assert sess.tokens + queue[0].footprint > sess.max_batch_tokens

    def test_oversized_request_still_runs_alone(self):
        """Liveness: a request whose footprint exceeds the whole budget is
        admitted into an empty batch rather than starving forever."""
        from collections import deque

        sess = self.make(max_batch_tokens=10)
        queue = deque([_req(0, prompt=100, out=50)])
        sess.step(queue)
        assert [r.index for r in sess.pending_admits] == [0]
        assert not queue
        assert sess.pending_kind == "prefill"

    def test_quiet_decode_boundary_allocates_nothing(self):
        from collections import deque

        sess = self.make()
        queue = deque([_req(0, out=4), _req(1, out=6)])
        sess.step(queue)
        sess.step(queue)  # both prefilled, decoding
        running = sess.running
        groups = {k: list(v) for k, v in running.items()}
        duration = sess.step(queue)
        # Nothing finished or joined: shared empty effects, the same
        # filing of the running requests, a memoized duration.
        assert sess.prefilled == () and sess.finished == ()
        assert sess.running is running and running == groups
        assert duration is sess.durations[2]
        assert sess.slots == 2 and sess.n_decodes == 2

    def test_request_fields_and_immutability(self):
        req = _req(3, arrival=1.5, prompt=7, out=2)
        assert req == GenRequest(index=3, arrival=1.5, prompt_tokens=7,
                                 output_tokens=2)
        assert req.footprint == 9
        with pytest.raises(AttributeError):
            req.index = 4


# --------------------------------------------------- engine: buffer mode
class TestBufferDispatcherBitIdentity:
    def legacy_generation(self):
        """output_tokens == 1 for every request: zero decode steps."""
        return GenerationConfig(
            dispatcher="buffer",
            length_model=TokenLengthModel(output_mean=1.0, output_max=1),
        )

    def test_single_token_buffer_matches_legacy_engine(self):
        """The acceptance pin: generation off vs buffer-generation with
        one-token outputs is the same engine, bit for bit."""
        ts = poisson_trace()
        base = build_engine(None).run(ts, name="legacy")
        gen = build_engine(self.legacy_generation()).run(ts, name="gen")
        np.testing.assert_array_equal(base.latencies, gen.latencies)
        np.testing.assert_array_equal(base.batch_costs, gen.batch_costs)
        np.testing.assert_array_equal(base.batch_sizes, gen.batch_sizes)
        np.testing.assert_array_equal(base.start_times, gen.start_times)
        # TTFT is the full latency when there is nothing after prefill,
        # and one-token requests have no decode pace at all.
        np.testing.assert_array_equal(gen.ttft, gen.latencies)
        assert np.isnan(gen.tpot).all()

    def test_multi_token_buffer_holds_for_longest_decode(self):
        ts = poisson_trace(n=400)
        gen = GenerationConfig(
            dispatcher="buffer",
            length_model=TokenLengthModel(output_mean=16.0),
        )
        log = build_engine(gen).run(ts, name="buffer-gen")
        assert log.is_generation
        # Decode extends every multi-token request beyond its TTFT.
        multi = log.output_tokens > 1
        assert multi.any()
        assert (log.latencies[multi] > log.ttft[multi]).all()
        one = ~multi
        np.testing.assert_array_equal(log.latencies[one], log.ttft[one])
        assert np.isfinite(log.tpot[multi]).all()
        assert np.isnan(log.tpot[one]).all()
        assert log.gen_tokens == int(log.output_tokens.sum())


# ----------------------------------------------- engine: continuous mode
class TestContinuousDispatcher:
    def generation(self, **kwargs):
        defaults = dict(
            dispatcher="continuous",
            length_model=TokenLengthModel(prompt_mean=64.0, output_mean=16.0),
            ttft_slo=0.05,
        )
        defaults.update(kwargs)
        return GenerationConfig(**defaults)

    def test_serves_everything_and_records_token_metrics(self):
        ts = poisson_trace(n=800)
        log = build_engine(self.generation()).run(ts, name="cont")
        assert log.n_shed == 0
        assert np.isfinite(log.latencies).all()
        assert np.isfinite(log.ttft).all()
        assert (log.latencies >= log.ttft).all()
        assert log.gen_sessions > 0
        assert log.gen_decode_iterations > 0
        assert log.gen_tokens == int(log.output_tokens.sum())
        # One batch row per session, each billed as one invocation.
        assert log.batch_sizes.size == log.gen_sessions
        assert int(log.batch_sizes.sum()) == log.n_requests

    def test_fast_path_matches_stepwise(self, tmp_path):
        ts = poisson_trace(n=800)
        fast = build_engine(self.generation()).run(ts, name="fast")
        # A checkpoint_path stops the loop at every snapshot boundary.
        slow = build_engine(self.generation()).run(
            ts, name="slow", checkpoint_path=tmp_path / "gen.ckpt")
        np.testing.assert_array_equal(fast.latencies, slow.latencies)
        np.testing.assert_array_equal(fast.ttft, slow.ttft)
        np.testing.assert_array_equal(fast.tpot, slow.tpot)
        np.testing.assert_array_equal(fast.batch_costs, slow.batch_costs)
        assert fast.gen_sessions == slow.gen_sessions
        # Everything else too: n_events, every column and gen_* counter.
        assert_serving_logs_equal(fast, replace(slow, name=fast.name))

    def test_sessions_share_one_run_level_duration_memo(self, monkeypatch):
        """Every session of a run at one memory size reads and fills the
        same duration memo, and each memoized value is exactly what a
        fresh ``ttft``/``tpot`` call returns."""
        sessions = []
        step = ContinuousSession.step

        def recording_step(sess, queue):
            sessions.append(sess)
            return step(sess, queue)

        monkeypatch.setattr(ContinuousSession, "step", recording_step)
        log = build_engine(self.generation()).run(poisson_trace(n=800),
                                                  name="memo")
        assert log.gen_sessions > 1
        memos = {id(sess.durations) for sess in sessions}
        assert len(memos) == 1
        durations = sessions[0].durations
        assert any(k < 0 for k in durations) and any(k > 0 for k in durations)
        profile = self.generation().token_profile
        for key, duration in durations.items():
            fresh = (profile.ttft(CONFIG.memory_mb, -key) if key < 0
                     else profile.tpot(CONFIG.memory_mb, key))
            assert duration == float(fresh)
        # A session built on its own still gets a private memo.
        assert ContinuousSession(profile=profile, memory_mb=2048.0,
                                 batch_size=4).durations == {}

    def test_crash_and_restore_is_bit_identical(self, tmp_path):
        ts = poisson_trace(n=600)
        reference = build_engine(self.generation()).run(ts, name="ref")
        crashed, kill_points = run_with_crashes(
            lambda: build_engine(self.generation()),
            ts,
            tmp_path / "gen.ckpt",
            n_crashes=2,
            checkpoint_every=128,
            name="ref",
        )
        assert kill_points  # the drill actually killed the run
        assert_serving_logs_equal(reference, crashed)

    def test_max_waiting_sheds_and_charges_goodput(self):
        ts = poisson_trace(n=600, lam=2000.0)
        gen = self.generation(max_waiting=0)
        log = build_engine(gen, max_containers=1).run(ts, name="shed")
        assert log.n_shed > 0
        assert log.gen_shed == log.n_shed
        assert np.isnan(log.ttft[log.shed]).all()
        # Shed requests are misses, not absences: goodput with shedding
        # must sit strictly below the no-shed goodput on the same trace.
        free = build_engine(gen).run(ts, name="noshed")
        assert log.goodput() < free.goodput()

    def test_sessions_pin_config_and_release_containers(self):
        ts = poisson_trace(n=400)
        with use_registry(MetricsRegistry()) as registry:
            log = build_engine(self.generation()).run(ts, name="counters")
        counters = {
            record["name"]: record["value"]
            for record in registry.records() if record["type"] == "counter"
        }
        assert counters["serving.gen.requests"] == log.n_requests
        assert counters["serving.gen.sessions"] == log.gen_sessions
        assert counters["serving.gen.tokens"] == log.gen_tokens
        assert (
            counters["serving.gen.prefill_iterations"]
            == log.gen_prefill_iterations
        )

    def test_generation_rejects_fault_injection(self):
        platform = ServerlessPlatform(faults=FaultModel(failure_rate=0.1))
        with pytest.raises(ValueError, match="fault injection"):
            ServingEngine(CONFIG, platform=platform,
                          generation=self.generation())

    def test_fingerprint_gates_restore(self, tmp_path):
        ts = poisson_trace(n=400)
        engine = build_engine(self.generation())
        engine.run(ts, name="ckpt", checkpoint_path=tmp_path / "gen.ckpt",
                   checkpoint_every=64)
        from repro.serving import CheckpointError

        other = build_engine(self.generation(seed=999))
        with pytest.raises(CheckpointError):
            other.restore(tmp_path / "gen.ckpt")


# ------------------------------------------------------- log accessors
class TestGenerationLog:
    def test_percentiles_and_attainment(self):
        ts = poisson_trace(n=600)
        gen = GenerationConfig(
            dispatcher="continuous",
            length_model=TokenLengthModel(output_mean=8.0),
            ttft_slo=0.05, tpot_slo=0.5,
        )
        log = build_engine(gen).run(ts, name="acc")
        assert 0.0 < log.p_ttft(95.0) <= log.p(95.0)
        assert log.p_tpot(95.0) > 0.0
        assert 0.0 <= log.ttft_attainment() <= 1.0
        assert log.goodput() > 0.0
        duration = float(ts[-1] - ts[0])
        assert log.goodput(duration) <= log.n_requests / duration + 1e-9

    def test_non_generation_log_rejects_token_accessors(self):
        log = build_engine(None).run(poisson_trace(n=200), name="plain")
        assert not log.is_generation
        with pytest.raises(ValueError, match="not a generation log"):
            log.p_ttft(95.0)
        with pytest.raises(ValueError, match="not a generation log"):
            log.p_tpot(95.0)
        with pytest.raises(ValueError, match="not a generation log"):
            log.ttft_attainment()


# ------------------------------------------------------------ config layer
class TestGenerationConfigSchema:
    def test_defaults(self):
        cfg = validate_generation_config({})
        assert cfg.dispatcher == "continuous"
        assert cfg.max_batch_tokens is None
        assert cfg.token_profile == TokenServiceProfile()
        assert cfg.length_model == TokenLengthModel()

    def test_full_document_round_trip(self, tmp_path):
        doc = {
            "dispatcher": "buffer", "max_batch_tokens": 4096,
            "max_waiting": 16, "ttft_slo": 0.05, "tpot_slo": 0.01,
            "seed": 3,
            "length_model": {"prompt_mean": 64, "output_mean": 8},
            "profile": {"decode_time": 0.001},
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        cfg = load_generation_config(path)
        assert cfg.dispatcher == "buffer"
        assert cfg.max_batch_tokens == 4096
        assert cfg.length_model.output_mean == 8.0
        assert cfg.token_profile.decode_time == 0.001
        assert cfg == validate_generation_config(doc)

    @pytest.mark.parametrize("doc, path_label", [
        ({"dispatcher": "magic"}, "generation.dispatcher"),
        ({"ttft_slo": 0}, "generation.ttft_slo"),
        ({"tpot_slo": -0.1}, "generation.tpot_slo"),
        ({"max_batch_tokens": 0}, "generation.max_batch_tokens"),
        ({"seed": -1}, "generation.seed"),
        ({"length_model": {"prompt_mean": 0}},
         "generation.length_model.prompt_mean"),
        ({"length_model": {"output_mean": 5000}},
         "generation.length_model.output_mean"),
        ({"profile": {"decode_exponent": 0}},
         "generation.profile.decode_exponent"),
        ({"unknown_knob": 1}, "generation:"),
        ({"length_model": {"typo": 1}}, "generation.length_model"),
        ([1, 2], "generation:"),
    ])
    def test_path_named_errors(self, doc, path_label):
        with pytest.raises(ConfigError, match=None) as err:
            validate_generation_config(doc)
        assert path_label in str(err.value)

    def test_unreadable_and_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_generation_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_generation_config(bad)

    def test_config_post_init_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(dispatcher="magic")
        with pytest.raises(ValueError):
            GenerationConfig(max_batch_tokens=0)
        with pytest.raises(ValueError):
            GenerationConfig(ttft_slo=0.0)

    def test_negative_seed_rejected_at_construction(self):
        """Regression: a negative seed used to fail only once ``run()``
        reached numpy's SeedSequence."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GenerationConfig(seed=-1)


# ------------------------------------------------------------------ fleet
@pytest.mark.fleet
class TestFleetGeneration:
    def test_endpoint_generation_error_paths_are_prefixed(self):
        doc = {"endpoints": [
            {"name": "chat", "memory_mb": 2048, "batch_size": 8,
             "timeout": 0.05, "generation": {"ttft_slo": -1}},
        ]}
        with pytest.raises(ConfigError) as err:
            validate_fleet_config(doc)
        assert "endpoints[0].generation.ttft_slo" in str(err.value)

    def test_mixed_fleet_serves_generation_lane(self):
        doc = {"endpoints": [
            {"name": "chat", "memory_mb": 2048, "batch_size": 8,
             "timeout": 0.05, "share": 0.5, "keep_alive_s": 30.0,
             "generation": {"dispatcher": "continuous", "ttft_slo": 0.05,
                            "length_model": {"output_mean": 8}}},
            {"name": "embed", "memory_mb": 1024, "batch_size": 16,
             "timeout": 0.02, "share": 0.5, "keep_alive_s": 30.0},
        ]}
        engine = validate_fleet_config(doc).build()
        log = engine.run(poisson_trace(n=800), name="mixed")
        chat, embed = log["chat"], log["embed"]
        assert chat.is_generation and not embed.is_generation
        assert chat.gen_tokens > chat.n_requests  # multi-token outputs
        assert chat.goodput() > 0.0
        assert np.isfinite(embed.latencies).all()

    def test_generation_lane_matches_single_engine(self):
        """One generation lane, unconstrained budget: the fleet keystone
        equivalence extends to token-streaming endpoints."""
        gen = GenerationConfig(
            dispatcher="continuous",
            length_model=TokenLengthModel(output_mean=8.0),
        )
        ts = poisson_trace(n=600)
        single = build_engine(gen).run(ts, name="single")
        spec = EndpointSpec(
            name="only", config=CONFIG,
            platform=ServerlessPlatform(),
            pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=64),
            generation=gen,
        )
        fleet = FleetEngine([spec]).run({"only": ts}, name="fleet")["only"]
        np.testing.assert_array_equal(single.latencies, fleet.latencies)
        np.testing.assert_array_equal(single.ttft, fleet.ttft)
        np.testing.assert_array_equal(single.batch_costs, fleet.batch_costs)
        assert_serving_logs_equal(single, replace(fleet, name=single.name))


# --------------------------------------------------------------- surrogate
class TestGenerationSurrogate:
    def test_five_feature_dataset_and_training(self):
        # A surrogate over (M, B, T) plus the mean prompt and output token
        # counts: five feature columns, trained and predicting end to end.
        from repro.core import (
            DeepBATSurrogate,
            SurrogateDataset,
            TargetSpec,
            TrainConfig,
            train_surrogate,
        )

        rng = np.random.default_rng(0)
        n, spec = 32, TargetSpec()
        sequences = rng.exponential(0.01, size=(n, 16))
        features = np.column_stack([
            rng.choice([512.0, 1792.0], n), rng.choice([1, 4, 8], n),
            rng.choice([0.0, 0.05], n), rng.uniform(16, 64, n),
            rng.uniform(4, 16, n),
        ])
        latency = np.sort(rng.uniform(0.01, 0.2, (n, spec.n_outputs - 1)), axis=1)
        targets = np.column_stack([rng.uniform(1.0, 5.0, n), latency])
        ds = SurrogateDataset(sequences, features, targets, spec)

        model = DeepBATSurrogate(seq_len=16, n_features=5,
                                 n_outputs=ds.spec.n_outputs, seed=0)
        trained = train_surrogate(
            ds, model=model, config=TrainConfig(epochs=2, batch_size=8, seed=0)
        )
        pred = trained.predict(ds.sequences[:4], ds.features[:4])
        assert pred.shape == (4, ds.spec.n_outputs)
        assert np.isfinite(pred).all()


# ------------------------------------------------------- headline pinned eval
class TestContinuousBeatsBuffer:
    """The PR's headline claim, pinned as a tier-1 regression.

    Same trace, same platform, same (M, B, T) and pool: iteration-level
    continuous batching must beat the size/timeout buffer on goodput under
    a tight TTFT SLO — buffered requests pay batch formation up front and
    then wait for the whole batch's longest decode — at equal-or-lower
    cost, because sessions hold one container for many requests instead
    of billing each batch's full decode tail.
    """

    TTFT_SLO = 0.05
    #: Asserted improvement floor (measured ratio ≈ 1.15 on this pin).
    GOODPUT_FLOOR = 1.08

    def run_pair(self):
        ts = poisson_trace(seed=7, n=2000, lam=200.0)
        length = TokenLengthModel(output_mean=16.0)
        logs = {}
        for dispatcher in ("buffer", "continuous"):
            gen = GenerationConfig(dispatcher=dispatcher, length_model=length,
                                   ttft_slo=self.TTFT_SLO, seed=0)
            logs[dispatcher] = build_engine(gen).run(ts, name=dispatcher)
        return logs

    def test_continuous_wins_goodput_at_equal_or_lower_cost(self):
        logs = self.run_pair()
        buffer_goodput = logs["buffer"].goodput()
        continuous_goodput = logs["continuous"].goodput()
        assert continuous_goodput > buffer_goodput * self.GOODPUT_FLOOR
        assert logs["continuous"].total_cost <= logs["buffer"].total_cost
        # Same workload either way — the win is scheduling, not shedding.
        assert logs["buffer"].n_shed == 0
        assert logs["continuous"].n_shed == 0
        np.testing.assert_array_equal(
            logs["buffer"].output_tokens, logs["continuous"].output_tokens
        )

    def test_win_holds_as_the_slo_tightens(self):
        ts = poisson_trace(seed=7, n=2000, lam=200.0)
        length = TokenLengthModel(output_mean=16.0)
        for slo in (0.04, 0.03):
            pair = {}
            for dispatcher in ("buffer", "continuous"):
                gen = GenerationConfig(dispatcher=dispatcher,
                                       length_model=length, ttft_slo=slo)
                log = build_engine(gen).run(ts, name=f"{dispatcher}-{slo}")
                pair[dispatcher] = log.goodput()
            assert pair["continuous"] > pair["buffer"]
