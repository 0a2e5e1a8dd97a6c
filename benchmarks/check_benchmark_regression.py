#!/usr/bin/env python
"""Gate engine-benchmark throughput against a committed baseline.

Reads the ``--benchmark-json`` output of a ``benchmarks/bench_engine.py``
run, extracts each test's ``events_per_sec`` (the kernel's own counter,
recorded in ``extra_info`` — wall-clock of the event loop only, so it
is insensitive to model-construction cost), and compares against
``BENCH_engine_baseline.json``. A drop of more than ``--threshold``
(default 20%) fails the check with exit code 1.

Two gates are applied:

* **absolute** — each test's ``events_per_sec`` against the baseline
  value. Meaningful when run on hardware comparable to the machine
  that produced the baseline (a dev box refreshes it with
  ``--update``).
* **relative** — the incremental/full kernel speedup ratio, computed
  within one run so machine speed cancels out. This is the gate CI
  relies on (``--ratio-only``): hosted runners vary too much for
  absolute numbers, but the dependency index's advantage over the
  full-rescan reference must not erode wherever the suite runs.

Usage::

    python -m pytest benchmarks/bench_engine.py \
        --benchmark-json=BENCH_engine.json
    python benchmarks/check_benchmark_regression.py BENCH_engine.json
    python benchmarks/check_benchmark_regression.py --update BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "BENCH_engine_baseline.json"
INCREMENTAL_TEST = "test_san_event_throughput"
FULL_TEST = "test_san_event_throughput_full_kernel"

#: Gated within-run speedup ratios: baseline key -> (numerator test,
#: denominator test). Each ratio is recorded by ``--update`` and gated
#: whenever the baseline carries it and the run produced both tests.
RATIOS = {
    "speedup_incremental_over_full": (INCREMENTAL_TEST, FULL_TEST),
}


def load_throughputs(run_json: Path) -> dict:
    """``{test name: events_per_sec}`` from a pytest-benchmark JSON."""
    data = json.loads(run_json.read_text())
    throughputs = {}
    for bench in data.get("benchmarks", []):
        events_per_sec = bench.get("extra_info", {}).get("events_per_sec")
        if events_per_sec:
            throughputs[bench["name"]] = float(events_per_sec)
    return throughputs


def speedup(throughputs: dict, key: str = "speedup_incremental_over_full") -> float | None:
    """The named within-run speedup ratio, when both tests ran."""
    numerator_test, denominator_test = RATIOS[key]
    numerator = throughputs.get(numerator_test)
    denominator = throughputs.get(denominator_test)
    if numerator and denominator:
        return numerator / denominator
    return None


def update_baseline(baseline_path: Path, throughputs: dict) -> None:
    baseline = {
        "note": (
            "events_per_sec per benchmark (kernel-internal counter) and the "
            "within-run kernel speedup ratios; refresh with "
            "check_benchmark_regression.py --update <run.json>"
        ),
        "benchmarks": {
            name: {"events_per_sec": round(value, 1)}
            for name, value in sorted(throughputs.items())
        },
    }
    for key in RATIOS:
        ratio = speedup(throughputs, key)
        if ratio is not None:
            baseline[key] = round(ratio, 3)
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline updated: {baseline_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_json", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop (default 0.20)",
    )
    parser.add_argument(
        "--ratio-only",
        action="store_true",
        help="gate only the machine-independent kernel speedup ratio",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run instead of checking",
    )
    args = parser.parse_args(argv)

    throughputs = load_throughputs(args.run_json)
    if not throughputs:
        print(f"error: no events_per_sec entries in {args.run_json}")
        return 1

    if args.update:
        update_baseline(args.baseline, throughputs)
        return 0

    baseline = json.loads(args.baseline.read_text())
    failures = []

    if not args.ratio_only:
        for name, entry in baseline.get("benchmarks", {}).items():
            base = float(entry["events_per_sec"])
            current = throughputs.get(name)
            if current is None:
                failures.append(f"{name}: missing from run (baseline {base:,.0f})")
                continue
            floor = base * (1.0 - args.threshold)
            verdict = "OK" if current >= floor else "REGRESSION"
            print(
                f"{name}: {current:,.0f} events/s "
                f"(baseline {base:,.0f}, floor {floor:,.0f}) {verdict}"
            )
            if current < floor:
                failures.append(
                    f"{name}: {current:,.0f} < {floor:,.0f} events/s "
                    f"({100 * (1 - current / base):.1f}% below baseline)"
                )

    ratios_checked = 0
    for key in RATIOS:
        base_ratio = baseline.get(key)
        current_ratio = speedup(throughputs, key)
        label = key.replace("speedup_", "").replace("_over_", "/")
        if base_ratio is not None and current_ratio is not None:
            ratios_checked += 1
            floor = float(base_ratio) * (1.0 - args.threshold)
            verdict = "OK" if current_ratio >= floor else "REGRESSION"
            print(
                f"{label} speedup: {current_ratio:.2f}x "
                f"(baseline {float(base_ratio):.2f}x, floor {floor:.2f}x) {verdict}"
            )
            if current_ratio < floor:
                failures.append(
                    f"{label} speedup ratio {current_ratio:.2f}x "
                    f"below floor {floor:.2f}x"
                )
        elif base_ratio is not None:
            # The baseline gates this ratio but the run lacks one of
            # its tests — fail loudly rather than silently un-gate
            # (e.g. a renamed or skipped kernel bench).
            failures.append(
                f"{label} speedup unavailable: run is missing "
                f"{' or '.join(t for t in RATIOS[key] if t not in throughputs)}"
            )
    if args.ratio_only and ratios_checked == 0:
        failures.append("no speedup ratios available (need the kernel benchmarks)")

    if failures:
        print("\nBENCHMARK REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark throughput within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
