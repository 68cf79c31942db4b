"""Tests for the command-line interface (in-process, via cli.main)."""

import numpy as np
import pytest

from repro.arrival.io import load_trace
from repro.cli import main
from repro.core.training import load_trained
from repro.telemetry import get_registry, read_jsonl


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.npz"
    rc = main([
        "traces", "generate", "--kind", "azure", "--seed", "0",
        "--segments", "3", "--segment-duration", "15", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture()
def model_path(tmp_path, trace_path):
    path = tmp_path / "model.npz"
    rc = main([
        "train", "--trace", str(trace_path), "--train-segments", "2",
        "--samples", "60", "--seq-len", "16", "--epochs", "2",
        "--batch-size", "16", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestTracesCommand:
    def test_generate_npz(self, trace_path):
        trace = load_trace(trace_path)
        assert trace.n_segments == 3
        assert trace.timestamps.size > 100

    def test_generate_writes_the_path_given(self, tmp_path):
        # No suffix: the archive lands at exactly ``--out``, where
        # ``train --trace`` will look for it.
        path = tmp_path / "t"
        rc = main(["traces", "generate", "--segments", "2",
                   "--segment-duration", "10", "--out", str(path)])
        assert rc == 0
        assert load_trace(path).n_segments == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t"]

    def test_generate_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        rc = main(["traces", "generate", "--kind", "twitter",
                   "--segments", "2", "--segment-duration", "10",
                   "--out", str(path)])
        assert rc == 0
        assert path.read_text().startswith("# twitter")

    def test_generate_requires_out(self):
        assert main(["traces", "generate"]) == 2

    def test_stats(self, trace_path, capsys):
        rc = main(["traces", "stats", "--path", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IDC" in out and "rate req/s" in out

    def test_stats_requires_path(self):
        assert main(["traces", "stats"]) == 2


class TestTrainCommand:
    def test_checkpoint_loadable(self, model_path):
        trained = load_trained(model_path)
        preds = trained.predict(np.full(16, 0.01), np.array([[1024.0, 4, 0.05]]))
        assert preds.shape == (1, 6)

    def test_bad_train_segments(self, trace_path, tmp_path):
        rc = main(["train", "--trace", str(trace_path), "--train-segments", "99",
                   "--samples", "10", "--seq-len", "8", "--epochs", "1",
                   "--out", str(tmp_path / "m.npz")])
        assert rc == 2


class TestOptimizeCommand:
    def test_prints_decision(self, trace_path, model_path, capsys):
        rc = main(["optimize", "--model", str(model_path),
                   "--trace", str(trace_path), "--segment", "2", "--slo", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted p95 latency" in out
        assert "MB" in out


class TestEvaluateCommand:
    def test_deepbat_only(self, trace_path, model_path, capsys):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:3",
                   "--controllers", "deepbat", "--update-every", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean VCR %" in out

    def test_unknown_controller(self, trace_path, model_path):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:2",
                   "--controllers", "nope"])
        assert rc == 2

    def test_telemetry_dump(self, trace_path, model_path, tmp_path, capsys):
        dump = tmp_path / "telemetry.jsonl"
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:3",
                   "--controllers", "deepbat", "--update-every", "2000",
                   "--telemetry", str(dump)])
        assert rc == 0
        assert "telemetry records" in capsys.readouterr().out
        records = read_jsonl(dump)
        types = {r["type"] for r in records}
        assert {"span", "histogram", "event"} <= types
        kinds = {r.get("kind") for r in records if r["type"] == "event"}
        assert {"decision", "segment"} <= kinds
        # Telemetry is scoped to the command: the process default stays off.
        assert not get_registry().enabled

    def test_no_telemetry_collects_nothing(self, trace_path, model_path, capsys):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:2",
                   "--controllers", "deepbat", "--update-every", "2000"])
        assert rc == 0
        assert "telemetry records" not in capsys.readouterr().out


@pytest.mark.faults
class TestEvaluateFaultFlags:
    def test_fault_rate_adds_resilience_columns(self, trace_path, model_path,
                                                capsys):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:3",
                   "--controllers", "deepbat", "--update-every", "2000",
                   "--fault-rate", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retries" in out and "failed" in out and "degraded" in out

    def test_no_faults_no_resilience_columns(self, trace_path, model_path,
                                             capsys):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:2",
                   "--controllers", "deepbat", "--update-every", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retries" not in out and "degraded" not in out

    def test_fault_run_deterministic(self, trace_path, model_path, capsys):
        # Compare only simulation-derived columns: "decision ms" is
        # wall-clock and legitimately varies between runs.
        def run():
            rc = main(["evaluate", "--model", str(model_path),
                       "--trace", str(trace_path), "--segments", "1:3",
                       "--controllers", "deepbat", "--update-every", "2000",
                       "--fault-rate", "0.25", "--seed", "7"])
            assert rc == 0
            out = capsys.readouterr().out
            row = next(line for line in out.splitlines()
                       if line.strip().startswith("deepbat"))
            cells = [c.strip() for c in row.split("|")]
            del cells[4]  # decision ms
            return cells

        assert run() == run()

    def test_fault_telemetry_has_resilience_section(self, trace_path,
                                                    model_path, tmp_path,
                                                    capsys):
        dump = tmp_path / "faulty.jsonl"
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:3",
                   "--controllers", "deepbat", "--update-every", "2000",
                   "--fault-rate", "0.2", "--telemetry", str(dump)])
        assert rc == 0
        capsys.readouterr()
        records = read_jsonl(dump)
        names = {r["name"] for r in records if r["type"] == "counter"}
        assert "fault.retries" in names
        rc = main(["report", str(dump)])
        assert rc == 0
        assert "resilience" in capsys.readouterr().out

    def test_invalid_fault_rate(self, trace_path, model_path):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:2",
                   "--fault-rate", "1.5"])
        assert rc == 2

    def test_invalid_retries(self, trace_path, model_path):
        rc = main(["evaluate", "--model", str(model_path),
                   "--trace", str(trace_path), "--segments", "1:2",
                   "--fault-rate", "0.1", "--retries", "0"])
        assert rc == 2


@pytest.mark.serving
class TestServeCommand:
    def test_static_chooser_end_to_end(self, trace_path, capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--chooser", "static", "--start-segment", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served" in out and "p95 latency ms" in out
        assert "cold-start rate" in out and "reconfigurations" in out

    def test_batch_chooser_with_drift_and_faults(self, trace_path, capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--chooser", "batch", "--start-segment", "1",
                   "--keep-alive", "5", "--cold-starts", "--drift",
                   "--deploy-delay", "1", "--fault-rate", "0.1",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "drift triggers" in out
        assert "invocation retries" in out and "failed requests" in out

    def test_deepbat_chooser_runs(self, trace_path, model_path, capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--chooser", "deepbat", "--model", str(model_path),
                   "--start-segment", "1"])
        assert rc == 0
        assert "decisions" in capsys.readouterr().out

    def test_deepbat_requires_model(self, trace_path):
        assert main(["serve", "--trace", str(trace_path),
                     "--chooser", "deepbat"]) == 2

    def test_start_segment_out_of_range(self, trace_path):
        assert main(["serve", "--trace", str(trace_path),
                     "--start-segment", "99"]) == 2

    def test_invalid_fault_rate(self, trace_path):
        assert main(["serve", "--trace", str(trace_path),
                     "--fault-rate", "1.5"]) == 2

    def test_telemetry_dump_and_serving_dashboard(self, trace_path, tmp_path,
                                                  capsys):
        dump = tmp_path / "serving.jsonl"
        rc = main(["serve", "--trace", str(trace_path),
                   "--chooser", "batch", "--start-segment", "1",
                   "--keep-alive", "5", "--cold-starts",
                   "--telemetry", str(dump)])
        assert rc == 0
        assert "telemetry records" in capsys.readouterr().out
        records = read_jsonl(dump)
        names = {r["name"] for r in records if r["type"] == "counter"}
        assert "serving.requests" in names and "serving.batches" in names
        rc = main(["report", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving" in out and "cold-start rate" in out
        # Telemetry is scoped to the command: the process default stays off.
        assert not get_registry().enabled


    def test_unwritable_telemetry_exits_2_before_serving(self, trace_path,
                                                        tmp_path, capsys):
        dump = tmp_path / "no-such-dir" / "serving.jsonl"
        rc = main(["serve", "--trace", str(trace_path),
                   "--start-segment", "1", "--telemetry", str(dump)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {dump}")
        assert out == ""


class TestServeValidation:
    """PR 5 satellite: malformed serve inputs fail fast with exit code 2."""

    @pytest.mark.parametrize("flags", [
        ["--deploy-delay", "-1"],
        ["--keep-alive", "0"],
        ["--keep-alive", "-5"],
        ["--queue-limit", "-1"],
        ["--max-containers", "0"],
        ["--slo", "0"],
        ["--decision-interval", "0"],
        ["--retrain-delay", "-1"],
        ["--checkpoint-every", "0"],
        ["--guardrail", "--guardrail-window", "0"],
        ["--guardrail", "--guardrail-k", "0"],
        ["--guardrail", "--guardrail-cooldown", "0"],
        ["--guardrail", "--guardrail-percentile", "101"],
        ["--restore"],  # --restore without --checkpoint
        ["--memory", "64"],
        ["--batch-size", "0"],
        ["--timeout", "-1"],
        ["--drift-window", "1"],
    ])
    def test_rejects_bad_inputs(self, trace_path, flags, capsys):
        rc = main(["serve", "--trace", str(trace_path)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--" in err  # the message names the offending flag

    def test_error_messages_are_actionable(self, trace_path, capsys):
        main(["serve", "--trace", str(trace_path), "--deploy-delay", "-1"])
        err = capsys.readouterr().err
        assert "--deploy-delay" in err and "got -1" in err
        main(["serve", "--trace", str(trace_path), "--queue-limit", "-3"])
        err = capsys.readouterr().err
        assert "--queue-limit" in err and "sheds immediately" in err


class TestServeReliability:
    def test_checkpointed_run_writes_snapshot_and_journal(self, trace_path,
                                                          tmp_path, capsys):
        ck = tmp_path / "serve.ckpt"
        rc = main(["serve", "--trace", str(trace_path),
                   "--start-segment", "1",
                   "--checkpoint", str(ck), "--checkpoint-every", "128"])
        assert rc == 0
        assert "checkpoints written" in capsys.readouterr().out
        assert ck.exists()
        assert (tmp_path / "serve.ckpt.journal").exists()

    def test_restore_resumes_from_checkpoint(self, trace_path, tmp_path,
                                             capsys):
        import repro.serving.engine as engine_mod

        ck = tmp_path / "resume.ckpt"
        args = ["serve", "--trace", str(trace_path), "--start-segment", "1",
                "--checkpoint", str(ck), "--checkpoint-every", "64"]
        rc = main(args)
        assert rc == 0
        baseline = capsys.readouterr().out

        # Kill a fresh run partway (monkeypatch-free: drive the engine's own
        # chaos hook through a wrapped run), then resume it via --restore.
        original_run = engine_mod.ServingEngine.run

        def crashing_run(self, *a, **kw):
            kw["crash_after_events"] = 200
            return original_run(self, *a, **kw)

        engine_mod.ServingEngine.run = crashing_run
        try:
            with pytest.raises(engine_mod.SimulatedCrash):
                main(args)
        finally:
            engine_mod.ServingEngine.run = original_run
        capsys.readouterr()
        rc = main(args + ["--restore"])
        assert rc == 0
        resumed = capsys.readouterr().out
        # The summary table of the resumed run matches the uninterrupted one
        # (modulo the checkpoint counter, which counts per-process snapshots).
        strip = lambda text: [line for line in text.splitlines()
                              if "checkpoints written" not in line]
        assert strip(resumed) == strip(baseline)

    def test_restore_with_missing_checkpoint_fails_cleanly(self, trace_path,
                                                           tmp_path, capsys):
        rc = main(["serve", "--trace", str(trace_path), "--start-segment", "1",
                   "--checkpoint", str(tmp_path / "absent.ckpt"), "--restore"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_guardrail_flags_run_and_report(self, trace_path, tmp_path,
                                            capsys):
        dump = tmp_path / "guard.jsonl"
        # An undersized static config with a huge batching delay breaks the
        # SLO immediately; the breaker must trip and the dashboard must grow
        # a reliability section.
        rc = main(["serve", "--trace", str(trace_path), "--start-segment", "1",
                   "--batch-size", "64", "--timeout", "0.5",
                   "--guardrail", "--guardrail-window", "32",
                   "--guardrail-k", "2", "--guardrail-cooldown", "2",
                   "--telemetry", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guardrail trips" in out and "breaker state" in out
        records = read_jsonl(dump)
        names = {r["name"] for r in records if r["type"] == "counter"}
        assert "guardrail.tripped" in names
        rc = main(["report", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reliability" in out and "breaker trips" in out


@pytest.mark.serving
@pytest.mark.fleet
class TestServeFleet:
    """PR 6: ``repro serve --fleet fleet.json`` multi-endpoint serving."""

    @pytest.fixture()
    def fleet_path(self, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "max_containers": 6,
            "scheduler": {"interval_s": 20.0},
            "endpoints": [
                {"name": "chat", "memory_mb": 2048, "batch_size": 8,
                 "timeout": 0.05, "slo": 0.15, "share": 0.7},
                {"name": "embed", "memory_mb": 1024, "batch_size": 16,
                 "timeout": 0.02, "slo": 0.08, "share": 0.3,
                 "chooser": "batch", "decision_interval_s": 30.0},
            ],
        }))
        return path

    def test_two_endpoint_fleet_end_to_end(self, trace_path, fleet_path,
                                           capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path), "--start-segment", "1",
                   "--cold-starts", "--keep-alive", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet of 2 endpoints" in out and "budget 6 containers" in out
        assert "chat" in out and "embed" in out
        # Per-endpoint SLO verdict column plus the fleet totals row.
        assert "met" in out and "fleet" in out

    def test_invalid_config_names_field(self, fleet_path, trace_path, capsys):
        import json

        doc = json.loads(fleet_path.read_text())
        doc["endpoints"][0]["slo"] = 0
        fleet_path.write_text(json.dumps(doc))
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fleet config")
        assert "endpoints[0].slo" in err

    def test_endpoint_memory_below_lambda_range(self, fleet_path, trace_path,
                                                capsys):
        import json

        doc = json.loads(fleet_path.read_text())
        doc["endpoints"][0]["memory_mb"] = 64
        fleet_path.write_text(json.dumps(doc))
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fleet config")
        assert "endpoints[0].memory_mb" in err

    def test_missing_shares_rejected(self, fleet_path, trace_path, capsys):
        import json

        doc = json.loads(fleet_path.read_text())
        for ep in doc["endpoints"]:
            del ep["share"]
        fleet_path.write_text(json.dumps(doc))
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "share" in err and "chat" in err

    def test_deepbat_endpoint_requires_model(self, fleet_path, trace_path,
                                             capsys):
        import json

        doc = json.loads(fleet_path.read_text())
        doc["endpoints"][1]["chooser"] = "deepbat"
        fleet_path.write_text(json.dumps(doc))
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path)])
        assert rc == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--guardrail"],
        ["--drift"],
        ["--checkpoint", "x.ckpt"],
    ])
    def test_single_engine_reliability_flags_rejected(self, fleet_path,
                                                      trace_path, flags,
                                                      capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert "--fleet" in err and flags[0] in err

    def test_unwritable_telemetry_exits_2_before_serving(self, trace_path,
                                                        fleet_path, tmp_path,
                                                        capsys):
        dump = tmp_path / "no-such-dir" / "fleet.jsonl"
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path), "--start-segment", "1",
                   "--telemetry", str(dump)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {dump}")
        assert out == ""

    def test_telemetry_and_fleet_dashboard(self, trace_path, fleet_path,
                                           tmp_path, capsys):
        dump = tmp_path / "fleet.jsonl"
        rc = main(["serve", "--trace", str(trace_path),
                   "--fleet", str(fleet_path), "--start-segment", "1",
                   "--telemetry", str(dump)])
        assert rc == 0
        assert "telemetry records" in capsys.readouterr().out
        records = read_jsonl(dump)
        names = {r["name"] for r in records if r["type"] == "counter"}
        # Per-endpoint namespacing, nothing under the bare prefix.
        assert "serving.chat.requests" in names
        assert "serving.embed.requests" in names
        assert "serving.requests" not in names
        assert "fleet.scheduler_plans" in names
        rc = main(["report", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "chat" in out and "embed" in out


class TestReportCommand:
    def test_renders_dashboard(self, trace_path, model_path, tmp_path, capsys):
        dump = tmp_path / "telemetry.jsonl"
        assert main(["evaluate", "--model", str(model_path),
                     "--trace", str(trace_path), "--segments", "1:3",
                     "--controllers", "deepbat", "--update-every", "2000",
                     "--telemetry", str(dump)]) == 0
        capsys.readouterr()
        rc = main(["report", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        for section in ("segments", "decisions", "spans", "histograms"):
            assert section in out
        assert "p95 ms" in out and "cost $/1M" in out and "decision ms" in out

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2


@pytest.mark.gen
class TestServeGeneration:
    @pytest.fixture()
    def gen_path(self, tmp_path):
        import json

        path = tmp_path / "gen.json"
        path.write_text(json.dumps({
            "dispatcher": "continuous",
            "ttft_slo": 0.05,
            "length_model": {"prompt_mean": 64, "output_mean": 8},
        }))
        return path

    def test_generation_run_reports_token_metrics(self, trace_path, gen_path,
                                                  capsys):
        rc = main(["serve", "--trace", str(trace_path),
                   "--generation", str(gen_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dispatcher" in out and "continuous" in out
        assert "goodput req/s" in out
        assert "TTFT attainment" in out
        assert "p95 TTFT ms" in out and "p95 TPOT ms" in out
        assert "tokens generated" in out

    def test_generation_telemetry_dashboard_section(self, trace_path,
                                                    gen_path, tmp_path,
                                                    capsys):
        dump = tmp_path / "telemetry.jsonl"
        assert main(["serve", "--trace", str(trace_path),
                     "--generation", str(gen_path),
                     "--telemetry", str(dump)]) == 0
        names = {r["name"] for r in read_jsonl(dump) if r["type"] == "counter"}
        assert "serving.gen.requests" in names
        assert "serving.gen.tokens" in names
        capsys.readouterr()
        assert main(["report", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "generation" in out and "tokens" in out

    def test_invalid_generation_config_exits_2(self, trace_path, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ttft_slo": -1}')
        rc = main(["serve", "--trace", str(trace_path),
                   "--generation", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid generation config" in err
        assert "generation.ttft_slo" in err

    def test_generation_rejects_fleet_and_faults(self, trace_path, gen_path,
                                                 tmp_path, capsys):
        fleet = tmp_path / "fleet.json"
        fleet.write_text('{"endpoints": []}')
        assert main(["serve", "--trace", str(trace_path),
                     "--fleet", str(fleet),
                     "--generation", str(gen_path)]) == 2
        assert main(["serve", "--trace", str(trace_path),
                     "--generation", str(gen_path),
                     "--fault-rate", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "fault injection" in err
