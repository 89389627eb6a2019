"""Command-line front end.

State files are JSON: ``{"dims": [2, 4], "matrix": [[[re, im], ...], ...]}``
with the matrix given row-major as [re, im] pairs.  All numeric output is
emitted at full double precision.  Exit codes: 0 success, 2 usage error,
3 validation error, 4 numerical failure.  ``run`` reuses one parser per process.

Named states and families are rows of ``_STATES`` and ``_FAMILIES``: a
constructor and the parameters it takes, in order.  A family's row is also
a state's, at ``--x``.  argparse parses each flag once, into the parameter
it names; a row takes its parameters from them, and a missing required one
is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import analysis, bloch, criteria, hw_basis, states
from .errors import NumericalError, ValidationError, check_real
from .linalg import DensityMatrix


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": matrix_to_pairs(rho.matrix)}


def parse_state_json(doc: dict) -> DensityMatrix:
    """The state of a state file's JSON document; each matrix entry is exactly two finite real numbers, not bools."""
    try:
        dims = doc["dims"]
        if not isinstance(dims, list) or not all(type(d) is int for d in dims):
            raise ValidationError(f"dims must be a JSON list of integers, got {dims!r}")
        rows = doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    if not (isinstance(rows, list) and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
        raise ValidationError("matrix must be a square JSON list of rows")
    if not all(isinstance(pair, list) and len(pair) == 2 for row in rows for pair in row):
        raise ValidationError("each matrix entry must be an [re, im] pair")
    what = "each of a matrix entry's [re, im]"
    mat = [[complex(check_real(re, what), check_real(im, what)) for re, im in row] for row in rows]
    return DensityMatrix(np.array(mat), tuple(dims))


def load_state(path: str) -> DensityMatrix:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    return parse_state_json(doc)


def _list(kind):
    """An argparse type: comma-separated ``kind`` values, empty ones skipped; a malformed one is a usage error."""

    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None

    return parse


def _beta_sq(text: str) -> float:
    """An argparse type: beta from beta^2, an exact nonnegative rational such as 2/11."""
    try:
        return math.sqrt(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):  # not a rational, negative, or past float range
        raise argparse.ArgumentTypeError(f"must be a nonnegative rational number such as 2/11, got {text!r}") from None


# a parameter's flag as usage errors name it, where that is not --<parameter>
_FLAGS = {"beta": "--beta (or --beta-sq)"}


def _read(args, parser, what: str, required, optional=()) -> dict:
    """The parsed value of each parameter that has one given, in order; a required one missing is a usage error."""
    given = vars(args)  # ppt's subsystem has no flag
    values = {key: given[key] for key in (*required, *optional) if given.get(key) is not None}
    missing = [_FLAGS.get(key, f"--{key}") for key in required if key not in values]
    if missing:
        *flags, last = missing
        parser.error(f"{what} requires {', '.join(flags)} and {last}" if flags else f"{what} requires {last}")
    return values


def _criterion_spec(args, parser, crit: str) -> dict:
    """The parameters of criterion ``crit``'s row that are given by flags, as ``make_check`` takes them."""
    row = criteria.REGISTRY.get(crit)
    if row is None:  # argparse choices leave this to compare's --criteria
        parser.error(f"unknown criterion {crit!r} in --criteria")
    return {"criterion": crit, **_read(args, parser, f"criterion {crit}", row.required, row.optional)}


# family name -> (its constructor, the parameters it takes in order); ``state --name`` gives its state at --x
_FAMILIES = {"horodecki-mix": (states.horodecki_mix_family, ("b",))}

# state name -> (its constructor, the parameters it takes in order); a family's row makes the family
_STATES = {
    "horodecki": (states.horodecki_2x4, ("b",)),
    "xi": (states.xi_state, ()),
    "bell": (lambda: states.ghz(2), ()),
    "ghz": (states.ghz, ("n",)),
    **_FAMILIES,
    "random-pure": (states.random_pure, ("dim", "seed")),
    "random-density": (states.random_density, ("dim", "seed")),
    "random-separable": (lambda *params: states.random_separable(*params)[1], ("dims", "terms", "seed")),
}


def _make(table: dict, name: str, args, parser):
    """Row ``name`` of ``table`` called on the flag values of its parameters."""
    make, keys = table[name]
    return make(*_read(args, parser, name, keys).values())


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def cmd_basis(args, parser) -> int:
    b = hw_basis.basis(args.dim, args.normalization, args.convention)
    _emit(
        {
            "dim": b.dim,
            "normalization": b.normalization,
            "convention": b.convention,
            "elements": [
                {"l": l, "m": m, "matrix": matrix_to_pairs(q)} for (l, m), q in zip(b.labels, b.elements)
            ],
        }
    )
    return 0


def cmd_state(args, parser) -> int:
    rho = _make(_STATES, args.name, args, parser)
    if args.name in _FAMILIES:  # built before --x is read, so a bad --b is a validation error first
        rho = rho.state(_read(args, parser, args.name, ("x",))["x"])
    _emit(state_to_json(rho))
    return 0


def cmd_decompose(args, parser) -> int:
    rho = load_state(args.state)
    dec = bloch.decompose_bipartite(rho, args.normalization)
    _emit(
        {
            "dims": list(dec.dims),
            "normalization": dec.normalization,
            "r": [float(v) for v in dec.r.coeffs],
            "s": [float(v) for v in dec.s.coeffs],
            "T": [[float(v) for v in row] for row in dec.t],
        }
    )
    return 0


def cmd_check(args, parser) -> int:
    rho = load_state(args.state)
    check = criteria.make_check(**_criterion_spec(args, parser, args.criterion))
    _emit(check(rho).to_dict())
    return 0


def cmd_tensor_check(args, parser) -> int:
    rho = load_state(args.state)
    check = criteria.make_check(**_criterion_spec(args, parser, "thm2"))
    _emit([v.to_dict() for v in check.judgement(rho).verdicts(0)])
    return 0


def cmd_scan(args, parser) -> int:
    family = _make(_FAMILIES, args.family, args, parser)
    check = criteria.make_check(**_criterion_spec(args, parser, args.criterion))
    res = analysis.scan_threshold(family, check, args.grid, args.tol)
    _emit(res.to_dict())
    return 0


def cmd_optimize(args, parser) -> int:
    rho = load_state(args.state)
    res = analysis.optimize_params(rho, args.alpha_grid, args.beta_grid, args.m_range, args.normalization)
    _emit(res.to_dict())
    return 0


def cmd_compare(args, parser) -> int:
    if (args.family is None) == (args.state is None):
        parser.error("compare requires exactly one of --family or --state")
    if args.criteria is not None:
        names = args.criteria
    elif any(getattr(args, key) is not None for key in criteria.S_PARAMS):  # a weight given: the S rows
        names = criteria.S_ROWS
    else:  # no weights given: the rows that take no parameters
        names = [name for name, row in criteria.REGISTRY.items() if not row.required]
    specs = [_criterion_spec(args, parser, name) for name in names]
    subject = _make(_FAMILIES, args.family, args, parser) if args.family else load_state(args.state)
    report = analysis.compare(subject, specs, args.grid, args.tol)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit(report.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwsep",
        description="Entanglement detection via trace-norm criteria in the Heisenberg-Weyl basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    floats, ints = _list(float), _list(int)

    def add_common(p, *, params=False, state=False):
        p.add_argument(
            "--rescaled",
            dest="normalization",
            action="store_const",
            const="rescaled",
            default="standard",
            help="use the rescaled normalization",
        )
        if params:
            p.add_argument("--alpha", type=float)
            beta = p.add_mutually_exclusive_group()
            beta.add_argument("--beta", type=float)
            beta.add_argument(
                "--beta-sq", dest="beta", type=_beta_sq, metavar="BETA_SQ", help="exact rational beta^2, e.g. 2/11"
            )
            p.add_argument("--m", type=int)
            p.add_argument("--alphas", type=floats, help="comma-separated per-party weights, e.g. 1,1,1")
            p.add_argument(
                "--partition",
                dest="partitions",
                type=lambda text: [ints(text)] if text else None,  # empty: every bipartition
                metavar="PARTITION",
                help="comma-separated 1-based party subset, e.g. 1,3",
            )
        if state:
            p.add_argument("--state", required=True, help="path to a state JSON file")

    p = sub.add_parser("basis", help="dump the observable basis as JSON")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--convention", choices=hw_basis.CONVENTIONS, default="symmetric")
    add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("state", help="emit a named state as JSON")
    p.add_argument("--name", required=True, choices=list(_STATES))
    p.add_argument("--b", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dim", type=int)
    p.add_argument("--dims", type=ints, help="comma-separated subsystem dimensions, e.g. 2,4")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("decompose", help="Bloch decomposition of a bipartite state")
    add_common(p, state=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="evaluate one criterion on a state")
    # thm2 gives one verdict per bipartition: that is the tensor-check command
    p.add_argument("--criterion", required=True, choices=[c for c in criteria.REGISTRY if c != "thm2"])
    add_common(p, params=True, state=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tensor-check", help="multipartite tensor criterion, per bipartition")
    add_common(p, params=True, state=True)
    p.set_defaults(func=cmd_tensor_check)

    p = sub.add_parser("scan", help="threshold scan over a one-parameter family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--b", type=float)
    p.add_argument("--criterion", required=True, choices=list(criteria.REGISTRY))
    p.add_argument("--grid", type=int, default=analysis.GRID_POINTS)
    p.add_argument("--tol", type=float, default=analysis.TOL)
    add_common(p, params=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize", help="grid search over (alpha, beta, m)")
    p.add_argument("--alpha-grid", dest="alpha_grid", type=floats, default=[v / 10 for v in range(16)])
    p.add_argument("--beta-grid", dest="beta_grid", type=floats, default=[v / 10 for v in range(16)])
    p.add_argument("--m-range", dest="m_range", type=ints, default=[1, 2, 3])
    add_common(p, state=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="multi-criterion report for a family or state")
    p.add_argument("--family", choices=list(_FAMILIES))
    p.add_argument("--b", type=float)
    p.add_argument("--state")
    p.add_argument("--criteria", type=_list(str))
    p.add_argument("--grid", type=int, default=analysis.GRID_POINTS)
    p.add_argument("--tol", type=float, default=analysis.TOL)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p, params=True)
    p.set_defaults(func=cmd_compare)

    for p in sub.choices.values():  # a handler's usage errors print its command's usage, as argparse's own do
        p.set_defaults(parser=p)
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built on run's first call and reused; build_parser() makes a new one


def run(argv) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
