"""Command-line front end.

State files are JSON: ``{"dims": [2, 4], "matrix": [[[re, im], ...], ...]}``
with the matrix given row-major as [re, im] pairs.  All numeric output is
emitted at full double precision.  Exit codes: 0 success, 2 usage error,
3 validation error, 4 numerical failure.
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


def _criterion_spec(args, parser) -> dict:
    """Collect criterion parameters for check/scan/compare commands."""
    crit = args.criterion
    spec: dict = {"criterion": crit}
    row = criteria.S_CRITERIA.get(crit)
    if row is not None and row.free:
        given = {"alpha": args.alpha, "beta": _beta_value(args, parser), "m": args.m}
        if any(given[key] is None for key in row.free):
            parser.error(f"criterion {crit} requires --alpha, --beta (or --beta-sq) and --m")
        spec.update((key, given[key]) for key in row.free)
        if row.normalization is None:
            spec["normalization"] = _normalization(args)
    elif crit == "thm2":
        if args.alphas is None or args.m is None:
            parser.error("criterion thm2 requires --alphas and --m")
        spec.update(alphas=_csv(args.alphas, float, parser), m=args.m, normalization=_normalization(args))
        if getattr(args, "partition", None):
            spec["partitions"] = [_csv(args.partition, int, parser)]
    return spec


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
    name = args.name
    if name == "horodecki":
        rho = states.horodecki_2x4(_require(args.b, "--b", parser))
    elif name == "xi":
        rho = states.xi_state()
    elif name == "bell":
        rho = states.ghz(2)
    elif name == "ghz":
        rho = states.ghz(args.n)
    elif name == "horodecki-mix":
        fam = states.horodecki_mix_family(_require(args.b, "--b", parser))
        rho = fam.state(_require(args.x, "--x", parser))
    elif name == "random-pure":
        rho = states.random_pure(_require(args.dim, "--dim", parser), args.seed)
    elif name == "random-density":
        rho = states.random_density(_require(args.dim, "--dim", parser), args.seed)
    elif name == "random-separable":
        if args.dims is None:
            parser.error("--dims is required for random-separable")
        _, rho = states.random_separable(_csv(args.dims, int, parser), args.terms, args.seed)
    else:  # unreachable: argparse choices
        parser.error(f"unknown state name {name!r}")
    _emit(state_to_json(rho))
    return 0


def _require(value, flag, parser):
    if value is None:
        parser.error(f"{flag} is required for this command")
    return value


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
    spec = _criterion_spec(args, parser)
    check = analysis.make_check(**spec)
    _emit(check(rho).to_dict())
    return 0


def cmd_tensor_check(args, parser) -> int:
    rho = load_state(args.state)
    spec = _criterion_spec(args, parser)  # args.criterion is "thm2"
    del spec["criterion"]
    _emit([v.to_dict() for v in criteria.check_theorem2(rho, **spec)])
    return 0


def cmd_scan(args, parser) -> int:
    family = _family(args, parser)
    spec = _criterion_spec(args, parser)
    check = analysis.make_check(**spec)
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


def _family(args, parser) -> states.StateFamily:
    if args.family != "horodecki-mix":  # unreachable: argparse choices
        parser.error(f"unknown family {args.family!r}")
    return states.horodecki_mix_family(_require(args.b, "--b", parser))


def cmd_compare(args, parser) -> int:
    if (args.family is None) == (args.state is None):
        parser.error("compare requires exactly one of --family or --state")
    names = [tok for tok in args.criteria.split(",") if tok]
    specs = []
    for name in names:
        if name not in analysis.CRITERIA:
            parser.error(f"unknown criterion {name!r} in --criteria")
        sub = argparse.Namespace(**vars(args))
        sub.criterion = name
        specs.append(_criterion_spec(sub, parser))
    subject = _family(args, parser) if args.family else load_state(args.state)
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
    p.add_argument(
        "--name",
        required=True,
        choices=[
            "horodecki",
            "xi",
            "bell",
            "ghz",
            "horodecki-mix",
            "random-pure",
            "random-density",
            "random-separable",
        ],
    )
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
    p.add_argument("--criterion", required=True, choices=[c for c in analysis.CRITERIA if c != "thm2"])
    add_common(p, params=True, state=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tensor-check", help="multipartite tensor criterion, per bipartition")
    add_common(p, params=True, state=True)
    p.set_defaults(func=cmd_tensor_check, criterion="thm2")

    p = sub.add_parser("scan", help="threshold scan over a one-parameter family")
    p.add_argument("--family", required=True, choices=["horodecki-mix"])
    p.add_argument("--b", type=float)
    p.add_argument("--criterion", required=True, choices=analysis.CRITERIA)
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
    p.add_argument("--family", choices=["horodecki-mix"])
    p.add_argument("--b", type=float)
    p.add_argument("--state")
    p.add_argument("--criteria", default="hw,isc,vb,lb")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p, params=True)
    p.set_defaults(func=cmd_compare)

    return parser


def run(argv) -> int:
    parser = build_parser()
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
