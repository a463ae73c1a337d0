"""Command-line front end.

Subcommands: ``invariants`` (exact invariants plus oracle residuals),
``estimate`` (simulated protocol run, reconstructed invariants, criteria),
``werner-sweep`` (detection polynomials over a p-grid), ``selftest``.

Exit codes: 0 success, 1 usage error, 2 invalid state input, 3 numerical
failure.  CSV output is byte-identical for identical (command, config, seed)
and uses repr round-trip precision; schemas are documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import checks, criteria, reconstruct, stateio, twirl, weingarten
from .haar import DEFAULT_SEED
from .states import (
    BellDiagonalSpectrum,
    DensityMatrix,
    DimsProfile,
    StateError,
    bell_diagonal,
    maximally_mixed,
    random_density,
    werner_state,
)

EXIT_USAGE = 1
EXIT_BAD_STATE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# state resolution
# ---------------------------------------------------------------------------

def _parse_params(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    params = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"malformed --params item {item!r}, expected key=value")
        k, v = item.split("=", 1)
        try:
            params[k.strip()] = float(v)
        except ValueError as exc:
            raise UsageError(f"--params value {v!r} is not a number") from exc
    return params


def _int_param(params: dict[str, float], key: str, default: int) -> int:
    value = params.get(key, default)
    if not float(value).is_integer():
        raise UsageError(f"--params {key}={value!r} is not an integer")
    return int(value)


def _parse_dims(text: str | None) -> DimsProfile | None:
    if not text:
        return None
    try:
        return DimsProfile(int(d) for d in text.split(","))
    except (ValueError, StateError) as exc:
        raise UsageError(f"bad --dims {text!r}: {exc}") from exc


_BUILTIN_PARAMS = {
    "werner": {"d", "p"},
    "bell-diagonal": {"l1", "l2", "l3", "l4"},
    "maximally-mixed": set(),
    "random": {"rank", "seed"},
}


def resolve_state(args) -> DensityMatrix:
    if args.state and args.builtin:
        raise UsageError("--state and --builtin are mutually exclusive")
    if args.state:
        return stateio.load_state(args.state)
    if not args.builtin:
        raise UsageError("one of --state or --builtin is required")
    params = _parse_params(args.params)
    dims = _parse_dims(args.dims)
    name = args.builtin
    if name not in _BUILTIN_PARAMS:
        raise UsageError(f"unknown builtin {name!r} ({', '.join(_BUILTIN_PARAMS)})")
    unknown = sorted(set(params) - _BUILTIN_PARAMS[name])
    if unknown:
        raise UsageError(f"{name} does not take --params {', '.join(unknown)}")
    if name == "werner":
        d = _int_param(params, "d", dims[0] if dims else 0)
        if d < 2:
            raise UsageError("werner needs d (via --params d=... or --dims)")
        if dims is not None and dims.dims != (d, d):
            raise UsageError(f"werner with d={d} needs --dims {d},{d}, got {args.dims}")
        if "p" not in params:
            raise UsageError("werner needs --params p=...")
        return werner_state(d, params["p"])
    if name == "bell-diagonal":
        try:
            lam = [params[f"l{i}"] for i in range(1, 5)]
        except KeyError as exc:
            raise UsageError("bell-diagonal needs --params l1=..,l2=..,l3=..,l4=..") from exc
        if dims is not None and dims.dims != (2, 2):
            raise UsageError(f"bell-diagonal is a two-qubit state, got --dims {args.dims}")
        return bell_diagonal(BellDiagonalSpectrum(lam))
    if dims is None:
        raise UsageError(f"{name} needs --dims")
    if name == "maximally-mixed":
        return maximally_mixed(dims)
    rank = _int_param(params, "rank", dims.total)
    seed = _int_param(params, "seed", DEFAULT_SEED)
    if seed < 0:
        raise UsageError(f"random needs --params seed >= 0, got {seed}")
    return random_density(dims, rank, seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _state_for_order(args) -> DensityMatrix:
    rho = resolve_state(args)
    if args.order == 3 and rho.dims.n_parties != 2:
        raise StateError("order 3 requires a bipartite state")
    return rho


def cmd_invariants(args) -> int:
    rho = _state_for_order(args)
    exact, oracle, residuals = checks.invariant_table(rho, args.order)
    names = ["x%d" % k for k in range(len(exact))]
    lines = []
    if args.format == "csv":
        lines.append("name,exact,oracle,residual")
        for row in zip(names, exact, oracle, residuals):
            lines.append(",".join(_fmt(v) for v in row))
    else:
        lines.append(f"exact order-{args.order} invariants, dims={list(rho.dims.dims)}")
        for nm, ex, orc, res in zip(names, exact, oracle, residuals):
            lines.append(f"  {nm:>4} = {_fmt(ex)}  (oracle {_fmt(orc)}, residual {res:.3e})")
    _emit(lines, args.out)
    return 0


def _estimate_rows(rho: DensityMatrix, args):
    try:
        cfg = twirl.EstimatorConfig(
            n_unitaries=args.unitaries,
            shots=args.shots,
            master_seed=args.seed,
            plug_in=args.plug_in,
            workers=args.workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.shots and args.shots < args.order and not args.plug_in:
        raise UsageError(
            f"unbiased order-{args.order} estimation needs --shots >= {args.order}"
            " (or --plug-in)"
        )
    order, dims = args.order, rho.dims.dims
    est = twirl.estimate_y(rho, cfg, order)
    x_hat = reconstruct.invert(order, dims, est.values)
    if cfg.n_unitaries == 1:
        # one unitary has no spread, so its covariance is NaN and so is every error bar
        se_x = np.full(x_hat.shape, np.nan)
    else:
        # the inversion is linear, so two applications give A C A^T; rounding
        # can leave the variance of a state-constant invariant slightly negative
        cov_x = reconstruct.invert(order, dims, reconstruct.invert(order, dims, est.covariance).T)
        se_x = np.sqrt(np.maximum(np.diag(cov_x), 0.0))
    names = ["x%d" % k for k in range(len(x_hat))]
    if order == 2:
        exact = reconstruct.exact_x2(rho).purities
        crit, _ = criteria.purity_criterion(x_hat)
    else:
        xt = reconstruct.exact_x3(rho)
        exact = np.array(xt.values[:9] + (xt.x_s, xt.x_s))
        crit = criteria.third_order_criterion(x_hat)
    return names, x_hat, se_x, exact, [crit]


def cmd_estimate(args) -> int:
    rho = _state_for_order(args)
    names, x_hat, se_x, exact, crits = _estimate_rows(rho, args)
    lines = []
    if args.format == "csv":
        lines.append("row_type,name,value,std_error,lhs,rhs,margin,detected")
        for nm, v, se, ex in zip(names, x_hat, se_x, exact):
            lines.append(f"x,{nm},{_fmt(v)},{_fmt(se)},,,,")
        for c in crits:
            lines.append(
                f"criterion,{c.name},,,{_fmt(c.lhs)},{_fmt(c.rhs)},"
                f"{_fmt(c.margin)},{_fmt(c.detected)}"
            )
    else:
        lines.append(
            f"estimated invariants, order={args.order}, unitaries={args.unitaries},"
            f" shots={args.shots}, seed={args.seed}"
        )
        for nm, v, se, ex in zip(names, x_hat, se_x, exact):
            lines.append(f"  {nm:>4} = {_fmt(v)} +/- {_fmt(se)}  (exact {_fmt(ex)})")
        for c in crits:
            verdict = "DETECTED" if c.detected else "not detected"
            lines.append(
                f"  criterion {c.name}: lhs={_fmt(c.lhs)} rhs={_fmt(c.rhs)}"
                f" margin={_fmt(c.margin)} -> {verdict}"
            )
    _emit(lines, args.out)
    return 0


def cmd_werner_sweep(args) -> int:
    d = args.d
    if d < 2:
        raise UsageError("--d must be >= 2")
    if args.steps < 2 or not 0.0 <= args.p_min < args.p_max <= 1.0:
        raise UsageError("invalid p-grid")
    grid = np.linspace(args.p_min, args.p_max, args.steps)
    has3 = d >= 3
    lines = ["p,poly2,poly3,detected2,detected3"]
    for p in grid:
        p2 = criteria.werner_poly_2(d, p)
        row = [_fmt(float(p)), _fmt(p2)]
        if has3:
            p3 = criteria.werner_poly_3(d, p)
            row += [_fmt(p3), _fmt(p2 < 0), _fmt(p3 < 0)]
        else:
            row += ["", _fmt(p2 < 0), ""]
        lines.append(",".join(row))
    t2 = criteria.werner_threshold_2(d)
    t3 = _fmt(criteria.werner_threshold_3(d)) if has3 else ""
    ppt = 1.0 / (d + 1.0)
    lines.append(f"summary,p_star_2={_fmt(t2)},p_star_3={t3},ppt={_fmt(ppt)},")
    _emit(lines, args.out)
    return 0


def cmd_selftest(args) -> int:
    results = checks.run_selftest(perturb_w=args.debug_perturb_w)
    lines = []
    ok = True
    for name, passed, detail in results:
        ok &= passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    lines.append("selftest: " + ("all checks passed" if ok else "FAILURES above"))
    _emit(lines, args.out)
    return 0 if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_state_args(p):
    p.add_argument("--state", help="JSON state file")
    p.add_argument("--builtin",
                   help="werner | bell-diagonal | maximally-mixed | random")
    p.add_argument("--params", help="comma-separated key=value builtin parameters")
    p.add_argument("--dims", help="comma-separated local dimensions")


def _add_common_out(p):
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "report"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twirlkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="exact invariants with oracle residuals")
    _add_state_args(p)
    p.add_argument("--order", type=int, choices=(2, 3), default=2)
    _add_common_out(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("estimate", help="simulate a protocol run and reconstruct")
    _add_state_args(p)
    p.add_argument("--order", type=int, choices=(2, 3), default=2)
    p.add_argument("--unitaries", type=int, default=1000)
    p.add_argument("--shots", type=int, default=0,
                   help="shots per unitary (0 = exact Born probabilities)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plug-in", action="store_true",
                   help="use the biased plug-in shot estimator")
    _add_common_out(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("werner-sweep", help="detection polynomials over a p-grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("selftest", help="internal consistency checks")
    p.add_argument("--debug-perturb-w", type=float, default=0.0,
                   help=argparse.SUPPRESS)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_selftest)
    return parser


# the parser holds no per-call state, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateError as exc:
        print(f"invalid state input: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    except (reconstruct.ReconstructionError, twirl.EstimationError,
            weingarten.SingularDimensionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
