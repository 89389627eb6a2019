"""The four benchmark workloads.

Each workload generates its inputs from a seed, runs one timed operation per
input through hwsep's public API, and checks the operation's output outside
the timed region.  ``check`` returns ``OK``, ``KNOWN`` for a failure of the
documented false-certificate kind (a separable state flagged ENTANGLED at
extreme weights, within floating-point distance of the bound), or ``FAIL``
for any other wrong output.  Both ``KNOWN`` and ``FAIL`` count as failed
operations; only ``FAIL`` makes a run incorrect.

Every input list starts with a fixed item (the paper configuration, pure
GHZ-5, ...) and keeps its size classes in exact shares, so one pass over
the list does the same kind of work for every seed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hwsep
from hwsep import cli, hw_basis

OK, KNOWN, FAIL = "ok", "known-defect", "fail"

ROOT = Path(__file__).resolve().parent.parent

# A flagged separable state counts as the known defect only when
# value - bound is below this share of the bound: rounding, not a certificate.
EQUALITY_SLACK = 1e-12


def _reference_threshold() -> float:
    """THRESHOLD_HW pinned in the repository's reference data."""
    spec = importlib.util.spec_from_file_location("reference_data", ROOT / "tests" / "reference_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return float(module.THRESHOLD_HW)


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**32))


def _flags(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Exactly ``count`` of ``n`` positions set, at seeded places."""
    flags = np.zeros(n, dtype=bool)
    flags[rng.permutation(n)[:count]] = True
    return flags


def _density(matrix, dims) -> hwsep.DensityMatrix:
    return hwsep.DensityMatrix(matrix, tuple(dims))


def warm_basis(dims) -> None:
    """Fill the cached observable bases that the workload's dimensions use."""
    for d in sorted(set(dims)):
        for normalization in hw_basis.NORMALIZATIONS:
            hwsep.basis(d, normalization)


def clear_caches() -> None:
    """Empty every ``lru_cache`` in ``hw_basis`` so set-up can be timed again."""
    for value in vars(hw_basis).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


# ---------------------------------------------------------------------------
# scan: hw threshold scans along the Horodecki mixing family


@dataclass(frozen=True)
class ScanInput:
    family: hwsep.StateFamily
    params: dict
    reference: float | None = None


class Scan:
    name = "scan"
    size = 64
    dims = (2, 4)
    op_name, op_unit, op_scale, tails = "scan_ms", "ms", 1.0, (50, 90)

    def generate(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        paper = dict(alpha=0.5, beta=math.sqrt(2 / 11), m=1, normalization="standard")
        items = [ScanInput(hwsep.horodecki_mix_family(0.9), paper, _reference_threshold())]
        for i in range(1, self.size):
            b = float(rng.uniform(0.1, 0.95))
            alpha, beta = (float(v) for v in rng.uniform(0.0, 1.5, 2))
            params = dict(
                alpha=alpha,
                beta=beta,
                m=int(rng.integers(1, 4)),
                normalization=hw_basis.NORMALIZATIONS[i % 2],
            )
            items.append(ScanInput(hwsep.horodecki_mix_family(b), params))
        return items

    def op(self, item: ScanInput):
        check = hwsep.make_check("hw", **item.params)
        return hwsep.scan_threshold(item.family, check)

    def check(self, item: ScanInput, res) -> str:
        if item.reference is not None:
            ok = res.threshold is not None and abs(res.threshold - item.reference) <= res.width + 1e-9
            return OK if ok else FAIL
        check = hwsep.make_check("hw", **item.params)

        def violated(x: float) -> bool:
            return check(item.family.state(min(max(x, 0.0), 1.0))).entangled

        if res.threshold is None:
            ok = not violated(1.0)
        elif res.threshold == 0.0:
            ok = violated(0.0)
        else:
            ok = not violated(res.threshold - res.width) and violated(res.threshold + res.width)
        return OK if ok else FAIL


# ---------------------------------------------------------------------------
# verify: a stream of raw bipartite matrices, six verdicts per state

VERIFY_DIMS = ((2, 2), (2, 4), (3, 3), (3, 5), (4, 4))


@dataclass(frozen=True)
class VerifyInput:
    matrix: np.ndarray
    dims: tuple
    separable: bool
    extreme: bool
    alpha: float
    beta: float
    m: int
    isc_m: int


class Verify:
    name = "verify"
    size = 2000
    dims = tuple(d for pair in VERIFY_DIMS for d in pair)
    op_name, op_unit, op_scale, tails = "check_us", "us", 1000.0, (50, 99)
    verdicts_per_op = 6

    def generate(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        separable = _flags(rng, self.size, self.size // 2)
        extreme = _flags(rng, self.size, self.size // 10)
        items = []
        for i in range(self.size):
            dims = VERIFY_DIMS[i % len(VERIFY_DIMS)]
            if separable[i]:
                _, rho = hwsep.random_separable(dims, int(rng.integers(1, 21)), _child_seed(rng))
            else:
                rho = hwsep.random_density(dims[0] * dims[1], _child_seed(rng))
            if extreme[i]:
                alpha, beta = (float(v) for v in np.exp(rng.uniform(0.0, math.log(3e4), 2)))
            else:
                alpha, beta = (float(v) for v in rng.uniform(0.0, 2.0, 2))
            items.append(
                VerifyInput(
                    matrix=np.array(rho.matrix),
                    dims=dims,
                    separable=bool(separable[i]),
                    extreme=bool(extreme[i]),
                    alpha=alpha,
                    beta=beta,
                    m=int(rng.integers(0, 4)),
                    isc_m=int(rng.integers(1, 4)),
                )
            )
        return items

    def op(self, item: VerifyInput):
        rho = _density(item.matrix, item.dims)
        weights = dict(alpha=item.alpha, beta=item.beta)
        checks = (
            hwsep.make_check("hw", m=item.m, normalization="standard", **weights),
            hwsep.make_check("hw", m=item.m, normalization="rescaled", **weights),
            hwsep.make_check("vb"),
            hwsep.make_check("lb"),
            hwsep.make_check("isc", m=item.isc_m, **weights),
            hwsep.make_check("ppt"),
        )
        return tuple(check(rho) for check in checks)

    def check(self, item: VerifyInput, verdicts) -> str:
        flagged = [v for v in verdicts if v.entangled]
        if not item.separable or not flagged:
            return OK
        at_equality = all(v.value - v.bound <= EQUALITY_SLACK * max(1.0, v.bound) for v in flagged)
        return KNOWN if item.extreme and at_equality else FAIL


# ---------------------------------------------------------------------------
# optimize: in-process `hwsep optimize` commands on 2x4 state files

M_RANGE = "1,2,4,8,16,32"


@dataclass(frozen=True)
class OptimizeInput:
    path: str
    rho: hwsep.DensityMatrix


class Optimize:
    name = "optimize"
    size = 32
    dims = (2, 4)
    op_name, op_unit, op_scale, tails = "optimize_ms", "ms", 1.0, (50, 90)

    def generate(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        items = []
        for i in range(self.size):
            if i % 2 == 0:
                b, x = float(rng.uniform(0.1, 0.95)), float(rng.uniform(0.0, 1.0))
                rho = hwsep.horodecki_mix_family(b).state(x)
            else:
                rho = _density(hwsep.random_density(8, _child_seed(rng)).matrix, (2, 4))
            path = os.path.join(workdir, f"state{i:03d}.json")
            doc = {
                "dims": list(rho.dims),
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix],
            }
            with open(path, "w") as fh:
                json.dump(doc, fh)
            items.append(OptimizeInput(path, rho))
        return items

    def op(self, item: OptimizeInput):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["optimize", "--state", item.path, "--m-range", M_RANGE])
        return code, out.getvalue()

    def check(self, item: OptimizeInput, result) -> str:
        code, stdout = result
        if code != 0:
            return FAIL
        doc = json.loads(stdout)
        v = hwsep.check_theorem1(item.rho, doc["alpha"], doc["beta"], doc["m"], doc["normalization"])
        ok = abs(v.value - doc["value"]) <= 1e-12 and abs(v.bound - doc["bound"]) <= 1e-12
        return OK if ok else FAIL


# ---------------------------------------------------------------------------
# multipartite: check_theorem2 over all 15 bipartitions of five qubits

PARTIES = 5


@dataclass(frozen=True)
class TensorInput:
    rho: hwsep.DensityMatrix
    alphas: tuple
    kind: str  # "ghz", "ghz-pure", "separable" or "random"


class Multipartite:
    name = "multipartite"
    size = 150
    dims = (2,)
    op_name, op_unit, op_scale, tails = "thm2_ms", "ms", 1.0, (50, 90)

    def generate(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        dims = (2,) * PARTIES
        ghz = hwsep.ghz(PARTIES)
        white = _density(np.eye(2**PARTIES) / 2**PARTIES, dims)
        items = [TensorInput(ghz, (1.0,) * PARTIES, "ghz-pure")]
        for i in range(1, self.size):
            if i % 3 == 0:
                kind, rho = "ghz", hwsep.mix(float(rng.uniform(0.0, 1.0)), ghz, white)
            elif i % 3 == 1:
                kind = "separable"
                _, rho = hwsep.random_separable(dims, int(rng.integers(1, 21)), _child_seed(rng))
            else:
                kind = "random"
                rho = _density(hwsep.random_density(2**PARTIES, _child_seed(rng)).matrix, dims)
            alphas = tuple(float(a) for a in rng.uniform(0.0, 2.0, PARTIES))
            items.append(TensorInput(rho, alphas, kind))
        return items

    def op(self, item: TensorInput):
        return tuple(hwsep.check_theorem2(item.rho, item.alphas, 1))

    def check(self, item: TensorInput, verdicts) -> str:
        if item.kind == "separable":
            return FAIL if any(v.entangled for v in verdicts) else OK
        if item.kind == "ghz-pure":
            return OK if len(verdicts) == 2 ** (PARTIES - 1) - 1 and all(v.entangled for v in verdicts) else FAIL
        return OK


WORKLOADS = {w.name: w for w in (Scan(), Verify(), Optimize(), Multipartite())}
