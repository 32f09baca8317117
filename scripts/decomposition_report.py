#!/usr/bin/env python3
"""Print CNOT-level circuits for the two-qubit gates and re-check them.

Shows every placement (label, kind, wires) of the distinguishability
transfer gate and the state-separation gate at a few showcase angles, then
scans an angle grid and reports the worst re-multiplication error together
with the CNOT counts encountered.

Examples:
    python3 scripts/decomposition_report.py
    python3 scripts/decomposition_report.py --grid 40
"""

from __future__ import annotations

import argparse
import itertools
import math

import numpy as np

from cloneforge.gates import decompose_separation, decompose_transfer

#: largest census grid: the census costs about 0.10 ms per grid point squared
#: on a 2-vCPU VM (Python 3.11, numpy 2.4, one BLAS thread), so 400 points per
#: axis take about 17 s
MAX_GRID = 400


def show_circuit(title: str, circuit) -> None:
    print(title)
    for step, placement in enumerate(circuit.placements):
        wires = ",".join(str(q) for q in placement.qubits)
        print(f"  {step:2d}  {placement.kind:<5} on ({wires})  {placement.label}")
    print(f"  -> {circuit.cnot_count} CNOTs, re-multiplication error {circuit.max_abs_error:.3e}")
    print()


def census(grid_points: int) -> None:
    grid = np.linspace(0.01, math.pi / 4, grid_points)
    worst = 0.0
    counts = set()
    for theta1, theta2 in itertools.product(grid, grid):
        circuit = decompose_transfer(theta1, theta2)
        worst = max(worst, circuit.max_abs_error)
        counts.add(circuit.cnot_count)
    for theta_in, theta_out in itertools.product(grid, grid):
        if theta_out < theta_in:
            continue
        circuit = decompose_separation(theta_in, theta_out)
        worst = max(worst, circuit.max_abs_error)
        counts.add(circuit.cnot_count)
    print(
        f"census over a {grid_points} x {grid_points} angle grid: "
        f"worst re-multiplication error {worst:.3e}, CNOT counts {sorted(counts)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--theta1", type=float, default=math.pi / 8)
    parser.add_argument("--theta2", type=float, default=math.pi / 6)
    parser.add_argument("--grid", type=int, default=20, help="census grid points per axis")
    args = parser.parse_args(argv)
    # the separation gate needs a positive input angle, min(theta1, theta2)
    for flag in ("theta1", "theta2"):
        value = getattr(args, flag)
        if not 0.0 < value <= math.pi / 4:
            parser.error(f"--{flag} must lie in (0, pi/4], got {value!r}")
    if not 1 <= args.grid <= MAX_GRID:
        parser.error(f"--grid must lie in 1..{MAX_GRID}, got {args.grid}")

    t1, t2 = args.theta1, args.theta2
    show_circuit(
        f"transfer gate, theta1={t1:.6f}, theta2={t2:.6f}",
        decompose_transfer(t1, t2),
    )
    show_circuit(
        "transfer gate, degenerate corner theta1=theta2=0",
        decompose_transfer(0.0, 0.0),
    )
    lo, hi = min(t1, t2), max(t1, t2)
    show_circuit(
        f"separation gate, theta_in={lo:.6f}, theta_out={hi:.6f}",
        decompose_separation(lo, hi),
    )
    census(args.grid)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
