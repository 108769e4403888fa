"""Command-line harness: ``bdris solve | run | qstem``.

Matrix files are CSV with one row per matrix row and complex entries written
as ``re+imj`` tokens (e.g. ``1.5-0.25j``).  Exit codes: 0 success,
1 invalid input (usage, config or file), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import designs, harness, metrics, qstem
from .channel import ChannelSet


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([complex(tok.strip().replace(" ", "")) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad complex entry ({exc})") from exc
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def write_matrix_csv(a, fh) -> None:
    """Rows of ``a`` as ``re+imj`` cells at 17 significant digits: one % template per row, over
    the row's interleaved real and imaginary parts."""
    a = np.atleast_2d(a)
    template = ",".join(["%.17g%+.17gj"] * a.shape[1]) + "\n"
    parts = np.stack((a.real, a.imag), axis=-1).reshape(len(a), -1).tolist()
    fh.write("".join([template % tuple(row) for row in parts]))


def _cmd_solve(args) -> int:
    channels = ChannelSet(f=read_matrix_csv(args.f), g=read_matrix_csv(args.g))
    solution = designs.solve_maxdet(channels)
    alignment = designs.verify_block_structure(channels, solution)
    ceiling = metrics.d_max(channels)
    det = metrics.abs_det(metrics.equivalent_channel(channels, solution))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_matrix_csv(solution.theta, fh)
    else:
        write_matrix_csv(solution.theta, sys.stdout)
    print(f"m: {solution.m}")
    print(f"rank: {solution.rank}")
    print(f"d_max: {ceiling:.17g}")
    print(f"abs_det: {det:.17g}")
    print(f"rel_det_error: {abs(det - ceiling) / ceiling:.3e}")
    print(f"symmetry_defect: {np.linalg.norm(solution.theta - solution.theta.T):.3e}")
    print(f"block_off_diag_norm: {alignment.off_diag_norm:.3e}")
    print(f"t1_unitarity_defect: {alignment.t1_unitarity_defect:.3e}")
    return 0


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    out = args.out or config.output_path
    records = harness.run_experiment(config)
    harness.emit_csv(records, out)
    errors = sum(1 for rec in records if rec.error)
    print(f"wrote {len(records)} records to {out}" + (f" ({errors} with errors)" if errors else ""))
    return 0


def _cmd_qstem(args) -> int:
    if args.theta is not None:
        if args.f or args.g:
            raise ValueError("give either --theta or the channel pair --f/--g, not both")
        if args.q is not None:
            raise ValueError("--q applies to --f/--g only: --theta synthesizes the fully connected q = M network")
        theta = read_matrix_csv(args.theta)
        b = qstem.theta_to_b(theta, z0=args.z0)
        residual = phase = None
    else:
        if not (args.f and args.g):
            raise ValueError("qstem needs --theta or both --f and --g")
        channels = ChannelSet(f=read_matrix_csv(args.f), g=read_matrix_csv(args.g))
        design = designs.solve_maxdet(channels)
        q = args.q if args.q is not None else max(design.rank - 1, 1)
        b, residual, phase = qstem.synthesize_qstem(design, q, z0=args.z0)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            harness.write_susceptance_csv(b, fh)
    else:
        harness.write_susceptance_csv(b, sys.stdout)
    print(f"q: {b.q}  m: {b.m}  elements: {qstem.element_count(b.q, b.m)}")
    if residual is not None:
        print(f"residual: {residual:.6e}\nphase: {phase:.17g}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is invalid input, exit 1; argparse's own 2 is the numerical-failure code
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bdris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the Max-Det scattering matrix for F, G")
    p_solve.add_argument("f", help="CSV file with the RIS->Rx channel F (N_r x M)")
    p_solve.add_argument("g", help="CSV file with the Tx->RIS channel G (N_t x M)")
    p_solve.add_argument("--out", help="write Theta to this CSV file instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_run = sub.add_parser("run", help="run an experiment config and emit CSV records")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument("--out", help="override output_path")
    p_run.set_defaults(func=_cmd_run)

    p_q = sub.add_parser("qstem", help="synthesize a susceptance matrix")
    p_q.add_argument("--theta", help="symmetric unitary Theta CSV (fully connected Cayley)")
    p_q.add_argument("--f", help="RIS->Rx channel CSV (q-stem synthesis from the Max-Det frame)")
    p_q.add_argument("--g", help="Tx->RIS channel CSV")
    p_q.add_argument("--q", type=int, help="stem count (default: the Max-Det rank minus one, 2r-1 when M >= 2r)")
    p_q.add_argument("--z0", type=float, default=50.0, help="reference impedance in ohms")
    p_q.add_argument("--out", help="write B to this CSV file instead of stdout")
    p_q.set_defaults(func=_cmd_qstem)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
