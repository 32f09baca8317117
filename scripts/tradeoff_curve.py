#!/usr/bin/env python3
"""Sweep the hybrid cloning trade-off and compare it with its many-copy limit.

For each requested angle the script tabulates, across success probabilities
from the exact-cloning rate up to 1: the closed-form trade-off fidelity, the
fidelity reached by the simulated network, and the limiting curve the bound
approaches as the number of requested copies grows.

Examples:
    python3 scripts/tradeoff_curve.py
    python3 scripts/tradeoff_curve.py --theta 0.2 0.3 --n 4 --steps 7 --csv sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from cloneforge.bounds import (
    CloningProblem,
    exact_clone_probability,
    hybrid_fidelity_bound,
    hybrid_limit,
    idp_probability,
    overlap_after_copies,
)
from cloneforge.cli import MAX_SIMULATED_COPIES, MAX_SWEEP_STEPS
from cloneforge.networks import evaluate_cloner


def sweep(theta: float, m: int, n: int, steps: int) -> list[dict]:
    problem = CloningProblem(theta=theta, m_copies=m, n_copies=n)
    p_lo = exact_clone_probability(theta, m, n)
    p_idp = idp_probability(overlap_after_copies(theta, m))
    rows = []
    for i in range(steps):
        p_s = p_lo + (1.0 - p_lo) * i / (steps - 1)
        point = hybrid_fidelity_bound(theta, m, n, p_s)
        report = evaluate_cloner(problem, "hybrid", p_s=p_s)
        rows.append(
            {
                "theta": theta,
                "m": m,
                "n": n,
                "p_s": p_s,
                "f_bound": point.fidelity_bound,
                "f_simulated": report.fidelity,
                "f_limit": hybrid_limit(p_s, p_idp),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--theta",
        type=float,
        nargs="+",
        default=[math.pi / 8, 3 * math.pi / 16],
        help="family half-angles in radians (0 < theta <= pi/4)",
    )
    parser.add_argument("--m", type=int, default=1, help="input copies")
    parser.add_argument("--n", type=int, default=2, help="output copies")
    parser.add_argument("--steps", type=int, default=9, help="sweep points per angle")
    parser.add_argument("--csv", default=None, help="also write the table to this file")
    args = parser.parse_args(argv)
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        parser.error(f"--steps must lie in 2..{MAX_SWEEP_STEPS}, got {args.steps}")
    if args.m < 1:
        parser.error(f"--m must be at least 1, got {args.m}")
    if not args.m < args.n <= MAX_SIMULATED_COPIES:
        parser.error(
            f"--n must lie in {args.m + 1}..{MAX_SIMULATED_COPIES} (above --m), got {args.n}"
        )
    for theta in args.theta:
        if not 0.0 < theta <= math.pi / 4:
            parser.error(f"--theta must lie in (0, pi/4], got {theta!r}")

    rows = []
    for theta in args.theta:
        rows.extend(sweep(theta, args.m, args.n, args.steps))

    print(
        f"{'theta':>8} {'m':>2} {'n':>2} {'p_s':>10}"
        f" {'f_bound':>12} {'f_simulated':>12} {'f_limit':>12}"
    )
    for row in rows:
        print(
            f"{row['theta']:8.5f} {row['m']:2d} {row['n']:2d} {row['p_s']:10.6f}"
            f" {row['f_bound']:12.9f} {row['f_simulated']:12.9f} {row['f_limit']:12.9f}"
        )

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
