"""Command-line entry point.

Subcommands:
  run <scenario>   run a scenario, emit a JSON report (exit 2 on check failure)
  validate <file>  validate operator matrices in a JSON file
  selftest         quick randomized invariant sweep

Exit codes: 0 all checks pass, 1 usage/config error, 2 check failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import config, linalg, serialize
from .errors import (
    BadParameter,
    IopsimError,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)
from .iop import ZERO_WEIGHT_FLOOR, validate
from .scenarios import SCENARIOS

SELFTEST_TOL = 1e-9  # bound on every invariant defect `selftest` checks


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves
    # 2 for check failures, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_tols(pairs):
    tols = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise BadParameter(f"--tol expects name=value, got {item!r}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise BadParameter(f"tolerance {name!r} has non-numeric value {value!r}")
        if not (tols[name] > 0 and math.isfinite(tols[name])):
            raise BadParameter(f"tolerance {name!r} must be positive and finite, "
                               f"got {value}")
    return tols


def parse_slits(text):
    """Parse slit ranges "a:b,c:d" into ((a, b), (c, d)), as an argparse type.

    It raises ArgumentTypeError, whose message argparse prints; argparse
    prints its own for any ValueError, BadParameter included."""
    slits = []
    for chunk in text.split(","):
        a, sep, b = chunk.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"slit range must be a:b, got {chunk!r}")
        try:
            slits.append((int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-integer slit bounds in {chunk!r}")
    return tuple(slits)


# Each scenario's own flags: flag -> (keyword of the scenario function,
# argparse type, help).  Defaults are not restated here; an absent flag
# leaves the function's default in force.
FLAGS = {
    "stern-gerlach": {
        "--p-up": ("p_up_prior", float, "prior spin-up weight"),
        "--mc-samples": ("mc_samples", int, "Monte-Carlo sample count"),
        "--seed": ("seed", int, "sampling seed (falls back to $IOPSIM_SEED)"),
    },
    "cat": {
        "--p-plus": ("p_plus", float, "weight of the '+' subspace"),
        "--steps": ("steps", int, "number of evolution steps"),
    },
    "spin-one": {},
    "two-slit": {
        "--grid": ("grid_n", int, "number of grid sites"),
        "--slits": ("slit_positions", parse_slits,
                    "comma-separated site ranges a:b"),
        "--steps": ("steps", int, "number of propagation steps"),
        "--p-pass": ("p_pass", float, "prior passage probability, in "
                     f"(ZERO_WEIGHT_FLOOR = {ZERO_WEIGHT_FLOOR:g}, 1]"),
    },
}


@functools.cache
def build_parser() -> _Parser:
    """The parser tree, built once per process.

    It holds no call-time state: `--hbar` and `--seed` default to absent,
    and `_run_scenario` resolves them on every call.
    """
    parser = _Parser(prog="iopsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario")
    runs = run.add_subparsers(dest="scenario", required=True)
    for name, flags in FLAGS.items():
        p = runs.add_parser(name)
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named check tolerance")
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the full JSON report to stdout")
        for flag, (keyword, type_, help_) in flags.items():
            p.add_argument(flag, dest=keyword, type=type_,
                           default=argparse.SUPPRESS, help=help_)

    val = sub.add_parser("validate", help="validate operator file")
    val.add_argument("path")

    sub.add_parser("selftest", help="run randomized invariant sweep")
    return parser


def _run_scenario(args):
    params = {keyword: getattr(args, keyword)
              for keyword, _, _ in FLAGS[args.scenario].values()
              if hasattr(args, keyword)}
    env_seed = os.environ.get("IOPSIM_SEED")
    if (env_seed is not None and "--seed" in FLAGS[args.scenario]
            and "seed" not in params):
        try:
            params["seed"] = int(env_seed)
        except ValueError:
            raise BadParameter(
                f"IOPSIM_SEED: invalid int value: {env_seed!r}") from None
    tols = _parse_tols(args.tol)
    hbar = config.get_hbar() if args.hbar is None else args.hbar
    with config.hbar(hbar):
        report = SCENARIOS[args.scenario](tol_overrides=tols, **params)

    text = serialize.dumps(report.to_json())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json or not args.out:
        if args.json:
            sys.stdout.write(text)
        else:
            for c in report.checks:
                verdict = "pass" if c.passed else "FAIL"
                print(f"{verdict}  {c.description}  "
                      f"residual={c.residual:.3e} tol={c.tolerance:.3e}")
            print("all checks passed" if report.all_pass()
                  else "some checks FAILED")
    return 0 if report.all_pass() else 2


def _validate_file(path):
    try:
        with open(path) as fh:
            payload = serialize.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    operators = payload if isinstance(payload, list) else [payload]
    malformed = invalid = False
    for i, obj in enumerate(operators):
        try:
            m = serialize.matrix_from_json(obj)
            validate(m)
        except (NotHermitian, TraceNotOne, NotPositive) as exc:
            trace = float(np.trace(m).real)
            min_eig = float(linalg.eigh((m + m.conj().T) / 2).eigenvalues[0])
            print(f"operator {i}: invalid ({type(exc).__name__}): {exc}; "
                  f"hermiticity residual {linalg.hermiticity_defect(m):.3e}, "
                  f"trace residual {abs(trace - 1.0):.3e}, "
                  f"min eigenvalue {min_eig:.3e}")
            invalid = True
        except IopsimError as exc:
            # not a finite square matrix: report it and go on to the next
            print(f"operator {i}: malformed ({type(exc).__name__}): {exc}")
            malformed = True
        else:
            print(f"operator {i}: valid "
                  f"(hermiticity residual {linalg.hermiticity_defect(m):.3e}, "
                  f"trace {float(np.trace(m).real):.12g})")
    return 1 if malformed else 2 if invalid else 0


def _selftest():
    from . import composite, dynamics, measurement
    from .ensembles import random_iop, random_unitary
    from .iop import entropy
    rng = np.random.default_rng(12345)
    failures = []

    def check(name, ok):
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    for d in (2, 3, 4, 8):
        worst_entropy = worst_trace = 0.0
        for _ in range(50):
            rho = random_iop(rng, d)
            u = random_unitary(rng, d)
            evolved = dynamics.evolve(rho, u)
            worst_entropy = max(worst_entropy,
                                abs(entropy(evolved) - entropy(rho)))
            worst_trace = max(worst_trace,
                              abs(float(np.trace(evolved.matrix).real) - 1.0))
        check(f"dim {d}: entropy unitary-invariant", worst_entropy <= SELFTEST_TOL)
        check(f"dim {d}: evolution trace-preserving", worst_trace <= SELFTEST_TOL)
        worst = 0.0
        for _ in range(20):
            rho_s, rho_t = random_iop(rng, d), random_iop(rng, 2)
            worst = max(worst, composite.entropy_additivity_defect(rho_s, rho_t))
        check(f"dim {d}: entropy additive over products", worst <= SELFTEST_TOL)
        basis = np.eye(d, dtype=complex)
        ms = measurement.MeasurementSystem.projective(
            {k: np.outer(basis[:, k], basis[:, k].conj()) for k in range(d)})
        worst = 0.0
        for _ in range(20):
            rho = random_iop(rng, d)
            probs = measurement.outcome_probabilities(ms, rho)
            worst = max(worst, abs(sum(p for _, p in probs) - 1.0))
        check(f"dim {d}: projective probabilities normalized", worst <= SELFTEST_TOL)

    print("selftest passed" if not failures else "selftest FAILED")
    return 0 if not failures else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_scenario(args)
        if args.command == "validate":
            return _validate_file(args.path)
        return _selftest()
    except (IopsimError, OSError) as exc:
        print(f"iopsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
