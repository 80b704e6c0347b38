#!/usr/bin/env python3
"""Bootstrapped training from 2 to 7 qubits, in 4- and 8-chunk variants.

The 4-chunk chain trains n=2 from random initialization and bootstraps
one qubit at a time. The 8-chunk chain starts from the 4-chunk n=2
solution with every chunk split in two, then bootstraps the same way.
Writes a summary CSV per variant (the asymptotic-trend data) plus the
trained schedule for every size.
"""

import argparse
import time
from pathlib import Path

from qnnwitness.hamiltonian import refine_schedule, save_schedule
from qnnwitness.trainer import TrainerConfig, bootstrap_chain, bootstrap_summary_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/bootstrap")
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target-rms", type=float, default=1e-3)
    parser.add_argument("--epochs", type=int, default=2000)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    config4 = TrainerConfig(target_rms=args.target_rms, max_epochs=args.epochs, seed=args.seed, chunk_count=4)
    chains = {"4chunk": bootstrap_chain(args.n_max, config4)}

    config8 = TrainerConfig(target_rms=args.target_rms, max_epochs=args.epochs, seed=args.seed, chunk_count=8)
    chains["8chunk"] = bootstrap_chain(args.n_max, config8, refine_schedule(chains["4chunk"][2].schedule, 2))

    for label, results in chains.items():
        (out / f"summary_{label}.csv").write_text(bootstrap_summary_csv(results))
        for n, result in results.items():
            save_schedule(result.schedule, out / f"schedule_{label}_n{n}.json")
        line = ", ".join(f"n={n}: rms={r.final_rms:.1e}@{r.epochs_used}ep" for n, r in results.items())
        print(f"{label}: {line}")
    print(f"done in {time.perf_counter() - start:.1f}s -> {out}")


if __name__ == "__main__":
    main()
