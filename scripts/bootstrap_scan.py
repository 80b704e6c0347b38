#!/usr/bin/env python3
"""Bootstrapped training from 2 to 7 qubits, in 4- and 8-chunk variants.

The 4-chunk chain trains n=2 from random initialization and bootstraps
one qubit at a time. The 8-chunk chain starts from the 4-chunk n=2
solution with every chunk split in two, then bootstraps the same way.
Writes a summary CSV per variant (the asymptotic-trend data) plus the
trained schedule for every size. Exits as the ``qnnwitness`` CLI does: 2
with one ``error: ...`` line for a setting out of range, 4 with a
``diverged: ...`` line when a chain diverges, saving its last good schedule.
"""

import argparse
import sys
import time
from pathlib import Path

from qnnwitness.cli import report_diverged, report_error
from qnnwitness.hamiltonian import refine_schedule, save_schedule
from qnnwitness.trainer import TrainerConfig, TrainingDiverged, bootstrap_chain, bootstrap_summary_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/bootstrap")
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target-rms", type=float, default=TrainerConfig.target_rms)
    parser.add_argument("--epochs", type=int, default=TrainerConfig.max_epochs)
    args = parser.parse_args()

    out = Path(args.out_dir)
    start = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        config4 = TrainerConfig(target_rms=args.target_rms, max_epochs=args.epochs, seed=args.seed, chunk_count=4)
        chains = {"4chunk": bootstrap_chain(args.n_max, config4)}
        config8 = TrainerConfig(target_rms=args.target_rms, max_epochs=args.epochs, seed=args.seed, chunk_count=8)
        chains["8chunk"] = bootstrap_chain(args.n_max, config8, refine_schedule(chains["4chunk"][2].schedule, 2))
    except TrainingDiverged as exc:
        return report_diverged(exc, out)
    except (ValueError, OSError) as exc:  # a DimensionError is a ValueError
        return report_error(exc)

    for label, results in chains.items():
        (out / f"summary_{label}.csv").write_text(bootstrap_summary_csv(results))
        for n, result in results.items():
            save_schedule(result.schedule, out / f"schedule_{label}_n{n}.json")
        line = ", ".join(f"n={n}: rms={r.final_rms:.1e}@{r.epochs_used}ep" for n, r in results.items())
        print(f"{label}: {line}")
    print(f"done in {time.perf_counter() - start:.1f}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
