"""Lint: the serving layer must never touch NumPy's global RNG.

Checkpoint/restore snapshots the *platform's* bit-generator state; any code
in ``src/repro/serving/`` drawing from ``np.random``'s module-level
generator (``np.random.random``, ``np.random.seed``, legacy ``RandomState``
helpers, …) would be invisible to that snapshot and silently break the
bit-identical-resume guarantee. Explicit generator construction
(``default_rng``, ``Generator``, ``SeedSequence``, ``PCG64`` & co.) is
fine — those are seeded, owned objects the engine can persist.
"""

import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.serving

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SERVING_DIR = SRC / "serving"

#: Modules outside ``serving/`` that the engine's determinism guarantees
#: lean on just as hard: the continuous-batching state machine, the
#: token length/timing models, and the vectorized per-request seeding
#: the length model draws through. Their randomness must be explicit
#: per-request SeedSequence children, never global state.
EXTRA_FILES = (
    SRC / "batching" / "continuous.py",
    SRC / "serverless" / "generation.py",
    SRC / "serverless" / "outages.py",
    SRC / "utils" / "rng.py",
)

#: Explicit-generator constructors that are allowed through.
ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
           "SFC64", "MT19937", "BitGenerator"}

GLOBAL_RNG = re.compile(r"\bnp\.random\.(\w+)")


def test_fleet_modules_are_in_scope():
    """The sweep must cover the PR-6 fleet layer — ``split_by_shares``
    draws from an explicit generator, and only this glob keeps it so —
    and the PR-8 prewarming module, whose forecasters must stay
    deterministic functions of the observed history — and the PR-9
    generation config schema (``serving/generation.py``) rides along in
    the same glob — as does the PR-10 degradation stack
    (``serving/degrade.py``), whose backoff schedules and hedge delays
    must come from engine-owned generators only."""
    names = {p.name for p in SERVING_DIR.glob("*.py")}
    assert {"fleet.py", "fleet_config.py", "prewarm.py", "generation.py",
            "degrade.py"} <= names
    for extra in EXTRA_FILES:
        assert extra.is_file(), f"missing {extra}"


def test_serving_layer_has_no_global_rng_calls():
    assert SERVING_DIR.is_dir(), f"missing {SERVING_DIR}"
    offenders = []
    for path in sorted(SERVING_DIR.glob("*.py")) + list(EXTRA_FILES):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in GLOBAL_RNG.finditer(line):
                if match.group(1) not in ALLOWED:
                    offenders.append(
                        f"{path.name}:{lineno}: np.random.{match.group(1)}"
                    )
    assert not offenders, (
        "global NumPy RNG use in src/repro/serving/ breaks checkpoint "
        "determinism:\n" + "\n".join(offenders)
    )
