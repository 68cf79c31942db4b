# Developer entry points. Everything runs from the repo root with the
# in-tree package (PYTHONPATH=src) — no install step required.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-faults test-serving test-fleet test-chaos test-prewarm test-gen test-outage test-golden bench-smoke bench bench-perf bench-serving bench-decide bench-static bench-fleet bench-gen lint

## Tier-1: the fast unit/integration suite (excludes the `bench` marker).
test:
	$(PYTEST) -x -q -m "not bench"

## Fault-injection, retry, and degraded-mode serving tests only.
test-faults:
	$(PYTEST) -q -m faults

## Serving-runtime tests only (engine, warm pool, drift triggers).
test-serving:
	$(PYTEST) -q -m serving

## Fleet serving tests: multi-endpoint engine, shared container budget,
## cross-tenant scheduler, and the fleet config loader.
test-fleet:
	$(PYTEST) -q -m fleet

## Crash drills: random kills + checkpoint restore + equivalence oracle.
test-chaos:
	$(PYTEST) -q -m chaos

## Predictive prewarming: forecasters, policy math, engine integration,
## the Alibaba-like cold-start evaluation, and the oracle upper bound.
test-prewarm:
	$(PYTEST) -q -m prewarm

## Token-streaming generation: the prefill/decode service model,
## continuous batching vs the size/timeout buffer, goodput SLOs, and the
## legacy bit-identity pin.
test-gen:
	$(PYTEST) -q -m gen

## Correlated outages + graceful degradation: outage windows, container
## crashes, stragglers, cold-start backoff, hedging, brownout, failover.
test-outage:
	$(PYTEST) -q -m outage

## Golden digests: sha256 over the engine's event trace, columns and
## counters for a fixed seeded scenario matrix. A digest changes only by
## a hand edit whose commit message says why.
test-golden:
	$(PYTEST) -q -m golden

## Quick benchmark sanity check: the §IV-F decision-time speedup table.
## First run trains the shared workbench models; later runs load the cache.
bench-smoke:
	$(PYTEST) -q benchmarks/test_speedup_table.py

## Full figure/table reproduction suite (slow; writes benchmarks/results/).
bench:
	$(PYTEST) -q benchmarks

## All perf floors: the simulation core's speedups (grid sweep >= 3x,
## batched labeling <= 1.5x serial, fused attention >= 1.8x composed, MAP
## sampling >= 5x the per-event walk) and
## the serving loop's overheads; each test prints its measurements as one
## JSON line.
bench-perf:
	$(PYTEST) -q -s -m perf benchmarks/test_perf_simcore.py benchmarks/test_perf_serving.py

## Serving-loop floors only: prewarm overhead <= 50%, generation event
## rate >= 0.15x the request-level engine, disabled outage layer <= 10%.
bench-serving:
	$(PYTEST) -q -s -m perf benchmarks/test_perf_serving.py

## One 12 s run of the perf benchmark's `decide` workload: the surrogate
## forward and the optimizer search alone, the inner loop for nn/core perf
## work. `make bench-decide TRACE=1` adds the per-layer metrics.
TRACE ?= 0
bench-decide:
	$(PYTHON) benchmarks/perf/run.py --workload decide --seed 0 --seconds 12 --trace $(TRACE)

## One 12 s run of the perf benchmark's `serve-static` workload: the
## engine data plane alone (event loop, buffer, pool, billing) at a static
## config, the inner loop for buffer and engine perf work.
## `make bench-static TRACE=1` adds the per-layer metrics.
bench-static:
	$(PYTHON) benchmarks/perf/run.py --workload serve-static --seed 0 --seconds 12 --trace $(TRACE)

## One 12 s run of the perf benchmark's `fleet-outage` workload: eight
## lanes on one event heap under outages, crashes, hedging, failover and
## brownout, the inner loop for fleet and engine perf work.
## `make bench-fleet TRACE=1` adds the per-layer metrics.
bench-fleet:
	$(PYTHON) benchmarks/perf/run.py --workload fleet-outage --seed 0 --seconds 12 --trace $(TRACE)

## One 12 s run of the perf benchmark's `gen-continuous` workload: token
## streaming through continuous-batching sessions, the inner loop for
## session and generation-handler perf work.
## `make bench-gen TRACE=1` adds the per-layer metrics.
bench-gen:
	$(PYTHON) benchmarks/perf/run.py --workload gen-continuous --seed 0 --seconds 12 --trace $(TRACE)

## Syntax check of every tree we ship (no third-party linter in the image).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
