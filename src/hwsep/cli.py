"""Command-line front end.

State files are JSON: ``{"dims": [2, 4], "matrix": [[[re, im], ...], ...]}``
with the matrix given row-major as [re, im] pairs.  All numeric output is
emitted at full double precision.  Exit codes: 0 success, 2 usage error,
3 validation error, 4 numerical failure.  ``run`` reuses one parser per process.

Named states and families are rows of ``_STATES`` and ``_FAMILIES``: a
constructor and the parameters it takes, in order.  A family's row is also
a state's, at ``--x``.  Their parameters and the criteria's are read from
their flags by ``_FLAGS``; a missing required flag is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import analysis, bloch, criteria, hw_basis, states
from .errors import NumericalError, ValidationError
from .linalg import DensityMatrix


def matrix_to_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": matrix_to_pairs(rho.matrix)}


def parse_state_json(doc: dict) -> DensityMatrix:
    try:
        dims = doc["dims"]
        if not isinstance(dims, list) or not all(type(d) is int for d in dims):
            raise ValidationError(f"dims must be a JSON list of integers, got {dims!r}")
        rows = doc["matrix"]
        mat = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return DensityMatrix(mat, tuple(dims))


def load_state(path: str) -> DensityMatrix:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    return parse_state_json(doc)


def _csv(text: str, kind, parser) -> list:
    """Comma-separated values of type ``kind``; a malformed one is a usage error."""
    try:
        return [kind(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        parser.error(f"expected comma-separated {kind.__name__} values, got {text!r}")


def _beta_value(args, parser) -> float | None:
    if getattr(args, "beta_sq", None) is not None:
        try:
            frac = Fraction(args.beta_sq)
        except (ValueError, ZeroDivisionError):
            parser.error(f"--beta-sq must be a rational number such as 2/11, got {args.beta_sq!r}")
        if frac < 0:
            parser.error("--beta-sq must be nonnegative")
        return math.sqrt(float(frac))
    return args.beta


def _normalization(args) -> str:
    return "rescaled" if getattr(args, "rescaled", False) else "standard"


# parameter -> (its flag, as usage errors name it; its value from the parsed arguments, or None)
_FLAGS = {
    **{
        key: (f"--{key}", lambda args, parser, key=key: getattr(args, key))  # as argparse parsed it
        for key in ("alpha", "m", "b", "x", "n", "dim", "terms", "seed")
    },
    "beta": ("--beta (or --beta-sq)", _beta_value),
    "alphas": ("--alphas", lambda args, parser: None if args.alphas is None else _csv(args.alphas, float, parser)),
    "dims": ("--dims", lambda args, parser: None if args.dims is None else _csv(args.dims, int, parser)),
    "partitions": ("--partition", lambda args, parser: [_csv(args.partition, int, parser)] if args.partition else None),
    "normalization": ("--rescaled", lambda args, parser: _normalization(args)),
}


def _read(args, parser, what: str, required, optional=()) -> dict:
    """The flag value of each parameter that has one given, in order; a required one missing is a usage error."""
    values = {}
    for key in (*required, *optional):
        value = _FLAGS[key][1](args, parser) if key in _FLAGS else None  # ppt's subsystem has no flag
        if value is not None:
            values[key] = value
    missing = [_FLAGS[key][0] for key in required if key not in values]
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
    b = hw_basis.basis(args.dim, _normalization(args), args.convention)
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
    dec = bloch.decompose_bipartite(rho, _normalization(args))
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
    check = analysis.make_check(**_criterion_spec(args, parser, args.criterion))
    _emit(check(rho).to_dict())
    return 0


def cmd_tensor_check(args, parser) -> int:
    rho = load_state(args.state)
    check = analysis.make_check(**_criterion_spec(args, parser, "thm2"))
    _emit([v.to_dict() for v in check.judgement(rho).verdicts(0)])
    return 0


def cmd_scan(args, parser) -> int:
    family = _make(_FAMILIES, args.family, args, parser)
    check = analysis.make_check(**_criterion_spec(args, parser, args.criterion))
    res = analysis.scan_threshold(family, check, args.grid, args.tol)
    _emit(res.to_dict())
    return 0


def cmd_optimize(args, parser) -> int:
    rho = load_state(args.state)
    res = analysis.optimize_params(
        rho,
        _csv(args.alpha_grid, float, parser),
        _csv(args.beta_grid, float, parser),
        _csv(args.m_range, int, parser),
        _normalization(args),
    )
    _emit(res.to_dict())
    return 0


def cmd_compare(args, parser) -> int:
    if (args.family is None) == (args.state is None):
        parser.error("compare requires exactly one of --family or --state")
    if args.criteria is not None:
        names = [tok for tok in args.criteria.split(",") if tok]
    elif any(flag is not None for flag in (args.alpha, args.beta, args.beta_sq, args.m)):
        names = ["hw", "isc", "vb", "lb"]
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

    def add_common(p, *, rescaled=True, params=False, state=False):
        if rescaled:
            p.add_argument("--rescaled", action="store_true", help="use the rescaled normalization")
        if params:
            p.add_argument("--alpha", type=float)
            p.add_argument("--beta", type=float)
            p.add_argument("--beta-sq", dest="beta_sq", help="exact rational beta^2, e.g. 2/11")
            p.add_argument("--m", type=int)
            p.add_argument("--alphas", help="comma-separated per-party weights, e.g. 1,1,1")
            p.add_argument("--partition", help="comma-separated 1-based party subset, e.g. 1,3")
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
    p.add_argument("--dims", help="comma-separated subsystem dimensions, e.g. 2,4")
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
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p, params=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize", help="grid search over (alpha, beta, m)")
    p.add_argument("--alpha-grid", dest="alpha_grid", default=",".join(str(v / 10) for v in range(16)))
    p.add_argument("--beta-grid", dest="beta_grid", default=",".join(str(v / 10) for v in range(16)))
    p.add_argument("--m-range", dest="m_range", default="1,2,3")
    add_common(p, state=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="multi-criterion report for a family or state")
    p.add_argument("--family", choices=list(_FAMILIES))
    p.add_argument("--b", type=float)
    p.add_argument("--state")
    p.add_argument("--criteria")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p, params=True)
    p.set_defaults(func=cmd_compare)

    return parser


_PARSER: argparse.ArgumentParser | None = None  # built on run's first call and reused; build_parser() makes a new one


def run(argv) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
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
