#!/usr/bin/env python3
"""Shot-count sweeps for all four reference states (variance and CI data).

Writes one CSV per state into --out-dir; the default grid is 50..20000
in steps of 50 with 100 iterations per count. Prints where each state's
CI width crosses below 0.002. Exits as the ``qnnwitness`` CLI does: 2 with
one ``error: ...`` line for a setting out of range.
"""

import argparse
import sys
import time
from pathlib import Path

from qnnwitness.cli import report_error
from qnnwitness.fixtures import fixture_schedule
from qnnwitness.sampler import ShotConfig, sweep, sweep_csv
from qnnwitness.witness import PairStateKind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/shots")
    parser.add_argument("--iterations", type=int, default=ShotConfig.iterations)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        config = ShotConfig(iterations=args.iterations, seed=args.seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        return report_error(exc)
    schedule = fixture_schedule("table2")

    for kind in PairStateKind:
        start = time.perf_counter()
        stats = sweep(schedule, kind, (0, 1), config)
        path = out / f"sweep_{kind.value}.csv"
        path.write_text(sweep_csv(stats))
        widths = [high - low for low, high in zip(stats.ci_low, stats.ci_high)]
        crossing = next(
            (count for count, width in zip(stats.shot_counts, widths) if width <= 0.002), None
        )
        note = f"CI width <= 0.002 from {crossing} shots" if crossing else "CI width stays above 0.002"
        print(f"{kind.value:5s} -> {path}  ({note}; {time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
