"""Command-line front end.

Subcommands: ``invariants`` (exact invariants plus oracle residuals),
``estimate`` (simulated protocol run, reconstructed invariants, criteria),
``werner-sweep`` (detection polynomials over a p-grid), ``selftest``.

Exit codes: 0 success, 1 usage error (also an input too large for memory),
2 invalid state input (also an (order, parties) pair that the library refuses:
``criteria`` has no criterion for it, or ``reconstruct.exact_x3`` is not
defined on it), 3 numerical failure, 141 stdout closed by its reader (as a
shell reports SIGPIPE).  Each failure prints one line to stderr, a
failed write to stdout too; a closed stdout prints nothing.
CSV output is byte-identical for identical (command, config, seed) and uses
repr round-trip precision; schemas are documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable

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
EXIT_BROKEN_PIPE = 141

# the largest werner-sweep grid: about 5 s and 40 MiB peak RSS on one core;
# lines are written as they are made, so only the 8 MB grid of p is held
MAX_SWEEP_STEPS = 10**6


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


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    """Write each line as it is made, to ``out_path`` or stdout."""
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.writelines(line + "\n" for line in lines)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        try:
            sys.stdout.writelines(line + "\n" for line in lines)
            # a closed pipe fails this flush with BrokenPipeError, which main handles
            sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:
            _silence_stdout()
            raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _silence_stdout() -> None:
    """Point stdout's descriptor at devnull, so the interpreter's final flush is
    silent (Python's documented recipe); a replaced sys.stdout is left alone."""
    if sys.stdout is sys.__stdout__:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# state resolution
# ---------------------------------------------------------------------------

# each builtin's --params keys and the type its value is read by: an int
# written as an integer is read exactly (a float rounds a seed above 2**53),
# and a whole float such as 1e3 is accepted
_BUILTIN_PARAMS = {
    "werner": {"d": int, "p": float},
    "bell-diagonal": {"l1": float, "l2": float, "l3": float, "l4": float},
    "maximally-mixed": {},
    "random": {"rank": int, "seed": int},
}


def _read_param(kind: type, key: str, text: str) -> int | float:
    try:
        try:
            return kind(text)
        except ValueError:
            # an int may be written as a whole float such as 1e3
            value = float(text)
    except ValueError as exc:
        raise UsageError(f"--params value {text!r} is not a number") from exc
    if not value.is_integer():
        raise UsageError(f"--params {key}={value!r} is not an integer")
    return int(value)


def _parse_params(name: str, text: str | None) -> dict[str, int | float]:
    """The builtin's --params, keys checked before any value is read."""
    items = []
    for item in text.split(",") if text else ():
        if "=" not in item:
            raise UsageError(f"malformed --params item {item!r}, expected key=value")
        k, v = item.split("=", 1)
        items.append((k.strip(), v))
    kinds = _BUILTIN_PARAMS[name]
    keys = [k for k, _ in items]
    unknown = sorted(set(keys) - set(kinds))
    if unknown:
        raise UsageError(f"{name} does not take --params {', '.join(unknown)}")
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise UsageError(f"--params {', '.join(repeated)} given more than once")
    return {k: _read_param(kinds[k], k, v) for k, v in items}


def _parse_dims(text: str | None) -> DimsProfile | None:
    if not text:
        return None
    try:
        return DimsProfile(int(d) for d in text.split(","))
    except (ValueError, StateError) as exc:
        raise UsageError(f"bad --dims {text!r}: {exc}") from exc


def resolve_state(args) -> DensityMatrix:
    if args.state and any(a is not None for a in (args.builtin, args.dims, args.params)):
        raise UsageError("--state gives the whole state: it takes no --builtin, --dims or --params")
    if args.state:
        return stateio.load_state(args.state)
    if not args.builtin:
        raise UsageError("one of --state or --builtin is required")
    name = args.builtin
    if name not in _BUILTIN_PARAMS:
        raise UsageError(f"unknown builtin {name!r} ({', '.join(_BUILTIN_PARAMS)})")
    params = _parse_params(name, args.params)
    dims = _parse_dims(args.dims)
    if name == "bell-diagonal":
        try:
            lam = [params[f"l{i}"] for i in range(1, 5)]
        except KeyError as exc:
            raise UsageError("bell-diagonal needs --params l1=..,l2=..,l3=..,l4=..") from exc
        if dims is not None and dims.dims != (2, 2):
            raise UsageError(f"bell-diagonal is a two-qubit state, got --dims {args.dims}")
        return bell_diagonal(BellDiagonalSpectrum(lam))
    if name == "werner":
        d = params.get("d", dims[0] if dims else None)
        if d is None:
            raise UsageError("werner needs d (via --params d=... or --dims)")
        if d < 2:
            raise UsageError(f"werner needs d >= 2, got d={d}")
        if dims is not None and dims.dims != (d, d):
            raise UsageError(f"werner with d={d} needs --dims {d},{d}, got {args.dims}")
        if "p" not in params:
            raise UsageError("werner needs --params p=...")
        dims = DimsProfile((d, d))
    elif dims is None:
        raise UsageError(f"{name} needs --dims")
    # numpy would raise ValueError, not MemoryError, for a matrix past its index range
    if 16 * dims.total**2 > np.iinfo(np.intp).max:
        raise MemoryError(f"D = {dims.total}: a D x D complex matrix is past numpy's index range")
    if name == "werner":
        return werner_state(d, params["p"])
    if name == "maximally-mixed":
        return maximally_mixed(dims)
    rank = params.get("rank", dims.total)
    seed = params.get("seed", DEFAULT_SEED)
    if seed < 0:
        raise UsageError(f"random needs --params seed >= 0, got {seed}")
    return random_density(dims, rank, seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _csv(header: str, rows: Iterable[Iterable]) -> list[str]:
    return [header, *(",".join(_fmt(v) for v in row) for row in rows)]


def cmd_invariants(args) -> int:
    rho = resolve_state(args)
    exact, oracle, residuals = checks.invariant_table(rho, args.order)
    names = ["x%d" % k for k in range(len(exact))]
    if args.format == "csv":
        lines = _csv("name,exact,oracle,residual", zip(names, exact, oracle, residuals))
    else:
        lines = [f"exact order-{args.order} invariants, dims={list(rho.dims.dims)}"]
        for nm, ex, orc, res in zip(names, exact, oracle, residuals):
            lines.append(f"  {nm:>4} = {_fmt(ex)}  (oracle {_fmt(orc)}, residual {res:.3e})")
    _emit(lines, args.out)
    return 0


def cmd_estimate(args) -> int:
    rho = resolve_state(args)
    # refuse an (order, parties) with no criterion before any unitary is drawn
    criteria._table(args.order, rho.dims.n_parties)
    try:
        cfg = twirl.EstimatorConfig(
            n_unitaries=args.unitaries,
            order=args.order,
            shots=args.shots,
            master_seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    est = twirl.estimate_y(rho, cfg)
    names = ["x%d" % k for k in range(len(est.values))]
    c, _ = criteria.criterion(args.order, rho.dims.n_parties, est.values)
    if args.format == "csv":
        rows = [("x", nm, v, se, "", "", "", "")
                for nm, v, se in zip(names, est.values, est.std_error)]
        rows.append(("criterion", c.name, "", "", c.lhs, c.rhs, c.margin, c.detected))
        lines = _csv("row_type,name,value,std_error,lhs,rhs,margin,detected", rows)
    else:
        lines = [
            f"estimated invariants, order={args.order}, unitaries={args.unitaries},"
            f" shots={args.shots}, seed={args.seed}"
        ]
        # the exact column is printed only here, so only the report pays for it
        if args.order == 2:
            exact = reconstruct.exact_x2(rho).purities
        else:
            exact = reconstruct.exact_x3(rho).measurable
        for nm, v, se, ex in zip(names, est.values, est.std_error, exact):
            lines.append(f"  {nm:>4} = {_fmt(v)} +/- {_fmt(se)}  (exact {_fmt(ex)})")
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
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise UsageError(f"--steps must be between 2 and {MAX_SWEEP_STEPS}")
    if not 0.0 <= args.p_min < args.p_max <= 1.0:
        raise UsageError("invalid p-grid")
    grid = np.linspace(args.p_min, args.p_max, args.steps)
    has3 = d >= 3

    def lines():
        yield "p,poly2,poly3,detected2,detected3"
        verdict = ("false", "true")
        # Python floats one at a time (a list of the grid would triple the
        # peak), so repr gives _fmt's bytes; the polynomials stay per value,
        # since numpy's array power rounds differently
        for p in map(float, grid):
            p2 = criteria.werner_poly_2(d, p)
            if has3:
                p3 = criteria.werner_poly_3(d, p)
                yield f"{p!r},{p2!r},{p3!r},{verdict[p2 < 0]},{verdict[p3 < 0]}"
            else:
                yield f"{p!r},{p2!r},,{verdict[p2 < 0]},"
        t2 = criteria.werner_threshold_2(d)
        t3 = _fmt(criteria.werner_threshold_3(d)) if has3 else ""
        ppt = 1.0 / (d + 1.0)
        yield f"summary,p_star_2={_fmt(t2)},p_star_3={t3},ppt={_fmt(ppt)},"

    _emit(lines(), args.out)
    return 0


def cmd_selftest(args) -> int:
    results = checks.run_selftest()
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
    except (weingarten.SingularDimensionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"usage error: input too large for memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
