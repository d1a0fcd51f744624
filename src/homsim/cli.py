"""Command-line interface.

Subcommands
-----------
modes         eigenvalue tables chi_0..chi_{n-1} versus c, plus eigenmode samples
calibrate     gamma*L that reproduces a target pair-production probability
scan          delay scan of a scenario, written as CSV
fit           Gaussian dip fit of a scan CSV
oracle-check  Gaussian-engine vs Fock-oracle equivalence sweep

Exit codes: 0 on success.  On failure `main` writes
``error: <Type>: <message>`` to stderr and returns the code of the error's
type, from one table (`EXIT_CODES`):

  2  ExperimentError: a bad scenario, override, scan CSV or argument
  4  OSError: an input that cannot be read or an output that cannot be written
  3  any other error: a numerical failure or a physical range error
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from .experiment import (MAX_ROWS, OBSERVABLES, POSITIVE, PRESET_NAMES, ExperimentError,
                         check_bound)

EXIT_CODES = ((ExperimentError, 2), (OSError, 4))
EXIT_OTHER = 3
# Most states in one oracle sweep: about 45 s at 4.4 ms per state
MAX_ORACLE_STATES = 10000


def _parse_c_range(text):
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ExperimentError(f"--c-range wants start:stop:step, got {text!r}") from None
    check_bound("--c-range start", start, (0, np.inf))
    check_bound("--c-range stop", stop, (start, np.inf))
    check_bound("--c-range step", step, POSITIVE)
    # the length np.arange gives, counted before it allocates
    check_bound("--c-range rows", np.ceil((stop - start) / step + 0.5), (1, MAX_ROWS))
    return np.arange(start, stop + step / 2, step)


def _fixed(value, digits):
    """`value` rounded to `digits` decimals, with a rounded-off sign dropped:
    -1e-17 and -0.0 print as 0.000000, whatever their sign."""
    return format(round(float(value), digits) + 0.0, f".{digits}f")


def _output(path):
    """The stream a command writes to: the file at `path`, opened before the
    work starts so that a bad path fails at once, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _load_scenario(args):
    from .experiment import load_scenario, preset_scenario

    if args.preset:
        return preset_scenario(args.preset, overrides=args.set)
    if not args.config:
        raise ExperimentError("need --preset or --config")
    return load_scenario(Path(args.config).read_text(), overrides=args.set)


def cmd_modes(args):
    from .grids import TWO_PI
    from .modes import eigenvalue_curve, rect_rect_basis

    c_values = _parse_c_range(args.c_range)
    check_bound("--n-modes", args.n_modes, (1, np.inf))
    if args.eigenmodes is not None:
        check_bound("--eigenmodes", args.eigenmodes, POSITIVE)
    with _output(args.output) as out:
        head = "c, " + ", ".join(f"chi_{j}" for j in range(args.n_modes))
        rows = [", ".join(_fixed(v, 8) for v in row)
                for row in eigenvalue_curve(c_values, n_modes=args.n_modes)]
        text = "\n".join([head, *rows]) + "\n"
        if args.eigenmodes is not None:
            basis = rect_rect_basis(args.eigenmodes)
            text += (f"\n# eigenmodes at c = {args.eigenmodes} "
                     "(omega/B, phi_0, phi_1, phi_2)\n")
            b = 4.0 * args.eigenmodes
            sel = np.abs(basis.grid.points) <= 0.75 * b
            pts = basis.grid.points[sel]
            # scaled to integral dw |phi|^2 = 2 pi; a mode not stored prints as zeros
            phi = basis.eigenmodes[sel, :3].real * np.sqrt(TWO_PI / basis.grid.spacing)
            phi = np.pad(phi, ((0, 0), (0, 3 - phi.shape[1])))
            for i in range(0, len(pts), max(1, len(pts) // 64)):
                text += ", ".join(_fixed(v, 6) for v in [pts[i] / b, *phi[i]]) + "\n"
        out.write(text)
    return 0


def cmd_calibrate(args):
    from .source import pair_production_probability

    scenario = _load_scenario(args)
    with _output(args.output) as out:
        params = scenario.source_params
        prob = pair_production_probability(scenario.pair_modes, params.gamma_length,
                                           scenario.filters["signal"])
        out.write(f"gammaL_per_W = {params.gamma_length:.9e}\n"
                  f"pair_probability = {prob:.9f}\n")
    return 0


def cmd_scan(args):
    from .experiment import run_delay_scan

    scenario = _load_scenario(args)
    with _output(args.output) as out:
        out.write(run_delay_scan(scenario).to_csv())
    return 0


def cmd_fit(args):
    from .experiment import DelayScan, fit_visibility

    scan = DelayScan.from_csv(Path(args.input).read_text())
    with _output(args.output) as out:
        out.write(fit_visibility(scan, observable=args.observable).summary())
    return 0


def cmd_oracle_check(args):
    from .fock import random_equivalence_comparison

    check_bound("--tolerance", args.tolerance, (0, np.inf))
    check_bound("--states", args.states, (1, MAX_ORACLE_STATES))
    check_bound("--seed", args.seed, (0, np.inf))
    worst, checked = random_equivalence_comparison(n_states=args.states, seed=args.seed)
    sys.stdout.write(f"states = {args.states}\ncomparisons = {checked}\n"
                     f"max_deviation = {worst:.3e}\n")
    if worst > args.tolerance:
        sys.stderr.write(f"error: max deviation {worst:.3e} exceeds "
                         f"{args.tolerance:.1e}\n")
        return EXIT_OTHER
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Heralded Hong-Ou-Mandel simulator for fiber pair sources "
                    "behind gate+filter mode selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="Schmidt eigenvalue tables versus c = B*T/4")
    p.add_argument("--c-range", default="0.1:5:0.1", help="start:stop:step")
    p.add_argument("--n-modes", type=int, default=3)
    p.add_argument("--eigenmodes", type=float, default=None, metavar="C",
                   help="also emit phi_0..phi_2 samples at this c")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_modes)

    for name, func, help_text in (
            ("calibrate", cmd_calibrate, "calibrated gammaL for a scenario"),
            ("scan", cmd_scan, "delay scan to CSV")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", choices=PRESET_NAMES, default=None)
        p.add_argument("--config", default=None, help="scenario INI file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable, last wins)")
        p.add_argument("--output", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("fit", help="Gaussian dip fit of a scan CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--observable", choices=OBSERVABLES, default="fourfold")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oracle-check",
                       help="Gaussian engine vs Fock oracle equivalence sweep")
    p.add_argument("--states", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        for kind, code in EXIT_CODES:
            if isinstance(exc, kind):
                return code
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
