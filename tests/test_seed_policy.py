"""Seed-policy audit: all test/example randomness flows through
``repro.san.rng``.

The repository has exactly one seeding entry point —
:class:`repro.san.rng.StreamRegistry` — so that any number is
reproducible from a root seed plus a stream name, and so replication
and retry derivation stay consistent everywhere. A test or example
that calls ``np.random.default_rng(12345)`` directly silently opts
out of that policy: its stream collides with nothing, derives from
nothing, and is invisible to the seed-policy stamp in manifests and
baselines.

This audit greps the test corpus and ``examples/`` for direct RNG
construction and fails naming the offending file and line. Files with
a legitimate need (this file; the rng test exercising the primitives
themselves) carry an explicit allowlist entry rather than a silent
pass.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories the audit covers. The engine layers (``src/repro/san``
#: and ``src/repro/core``) are audited alongside tests and examples: every
#: kernel must draw through per-replication ``StreamRegistry`` child
#: streams, never through a generator it built itself. The strategy
#: zoo (``src/repro/strategies``) is audited too: a strategy is a pure
#: parameterisation of the model and must never hold randomness of its
#: own.
AUDITED = (
    "tests",
    "examples",
    "src/repro/san",
    "src/repro/core",
    "src/repro/strategies",
)

#: path (relative, posix) -> why direct RNG construction is allowed.
ALLOWLIST = {
    "tests/test_seed_policy.py": "the audit itself spells the patterns",
    "tests/san/test_rng.py": "exercises the StreamRegistry primitives "
    "against raw numpy generators on purpose",
    "src/repro/san/rng.py": "the StreamRegistry implementation is the "
    "one sanctioned constructor of numpy generators",
}

#: Direct seeding that bypasses StreamRegistry.
FORBIDDEN = re.compile(
    r"np\.random\.default_rng\s*\("
    r"|numpy\.random\.default_rng\s*\("
    r"|np\.random\.seed\s*\("
    r"|numpy\.random\.seed\s*\("
    r"|\bRandomState\s*\("
    r"|np\.random\.Generator\s*\("
    r"|\brandom\.seed\s*\("
)


def audit_offenders():
    offenders = []
    for directory in AUDITED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            if relative in ALLOWLIST:
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                stripped = line.split("#", 1)[0]
                if FORBIDDEN.search(stripped):
                    offenders.append(f"{relative}:{lineno}: {line.strip()}")
    return offenders


def test_no_direct_rng_seeding_in_tests_or_examples():
    offenders = audit_offenders()
    assert not offenders, (
        "direct RNG seeding bypasses the StreamRegistry seed policy; "
        "use StreamRegistry(seed).get('test/<name>') or add an "
        "ALLOWLIST entry with a reason:\n  " + "\n  ".join(offenders)
    )


def test_allowlist_entries_still_exist():
    # A deleted or renamed file must not leave a stale exemption behind.
    for relative in ALLOWLIST:
        assert (REPO_ROOT / relative).is_file(), (
            f"allowlisted file {relative} no longer exists; "
            "drop its ALLOWLIST entry"
        )
