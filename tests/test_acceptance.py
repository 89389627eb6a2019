"""Acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s``), checks its
stated tolerance, and where a runtime budget applies asserts it too.

Criterion 5 is marked strict-xfail: the detection threshold of the S-matrix
criterion at (alpha, beta, m) = (1/2, sqrt(2/11), 1) on the b = 0.9 family
is 0.226212, not the quoted 0.2234.  The quoted figure is reproduced only by
swapping alpha and beta between the S blocks while keeping the unswapped
bound; under that pairing the separable bound is provably violated by pure
product states, so it is not a sound criterion configuration and is not
implemented.  The assertion is kept exactly as stated rather than loosened.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import hwsep
from hwsep import (
    DensityMatrix,
    check_ppt,
    check_theorem1,
    check_theorem2,
    decompose_bipartite,
    decompose_single,
    make_check,
    purity_from_bloch,
    reconstruct_bipartite,
    scan_threshold,
    verify_orthogonality,
)
from hwsep.cli import parse_state_json, state_to_json
from hwsep.hw_basis import basis, basis_labels
from hwsep.states import ghz, horodecki_2x4, horodecki_mix_family, product, random_density, random_pure, random_separable

from reference_data import PRINTED_D3, THRESHOLD_HW

ALPHA = 0.5
BETA = np.sqrt(2 / 11)
FAMILY = horodecki_mix_family(0.9)


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    return ok


def test_01_basis_fidelity():
    t0 = time.perf_counter()
    generated = basis(3, convention="plain")
    worst = max(
        float(np.abs(q - PRINTED_D3[label]).max()) for label, q in zip(basis_labels(3), generated)
    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, "qutrit basis matches printed matrix list", ok, f"max dev {worst:.2e}, {elapsed:.2f} s")


def test_02_orthogonality():
    t0 = time.perf_counter()
    worst = max(verify_orthogonality(d) for d in range(2, 9))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 2.0
    assert report(2, "basis orthogonality d=2..8", ok, f"max dev {worst:.2e}, {elapsed:.2f} s")


def test_03_pure_state_norm():
    t0 = time.perf_counter()
    worst_std = worst_resc = 0.0
    for d in range(2, 7):
        target_std = np.sqrt(d - 1)
        target_resc = np.sqrt(d * (d - 1) / 2)
        for seed in range(1000):
            rho = random_pure(d, seed)
            worst_std = max(worst_std, abs(decompose_single(rho).norm - target_std))
            worst_resc = max(worst_resc, abs(decompose_single(rho, "rescaled").norm - target_resc))
    elapsed = time.perf_counter() - t0
    ok = worst_std < 1e-9 and worst_resc < 1e-9 and elapsed < 5.0
    assert report(
        3, "pure-state Bloch norms", ok,
        f"std dev {worst_std:.2e}, rescaled dev {worst_resc:.2e}, {elapsed:.2f} s",
    )


def test_04_purity_identity():
    worst = 0.0
    for i in range(1000):
        d = 2 + i % 5
        rho = random_density(d, 10_000 + i)
        worst = max(worst, abs(purity_from_bloch(decompose_single(rho)) - rho.purity()))
    ok = worst < 1e-9
    assert report(4, "purity from Bloch norm", ok, f"max err {worst:.2e}")


def _scan(criterion, **params):
    t0 = time.perf_counter()
    res = scan_threshold(FAMILY, make_check(criterion, **params))
    return res, time.perf_counter() - t0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "threshold at (1/2, sqrt(2/11), 1) is 0.226212; the quoted 0.2234 requires an "
        "alpha/beta block swap whose bound pure product states violate (unsound)"
    ),
)
def test_05_hw_threshold():
    res, elapsed = _scan("hw", alpha=ALPHA, beta=BETA, m=1)
    ok = abs(res.threshold - 0.2234) <= 2e-4 and elapsed < 10.0
    assert report(5, "S-matrix criterion threshold", ok, f"x* = {res.threshold:.6f} vs 0.2234, {elapsed:.2f} s")


def test_06_vb_threshold():
    res, elapsed = _scan("vb")
    ok = abs(res.threshold - 0.2293) <= 2e-4 and elapsed < 10.0
    assert report(6, "correlation-matrix baseline threshold", ok, f"x* = {res.threshold:.6f} vs 0.2293, {elapsed:.2f} s")


def test_07_isc_threshold():
    # same (alpha, beta, m) as the standard-basis example; this reproduces
    # the quoted value directly, settling the parameter-choice question.
    res, elapsed = _scan("isc", alpha=ALPHA, beta=BETA, m=1)
    ok = abs(res.threshold - 0.2320) <= 2e-4 and elapsed < 10.0
    assert report(7, "rescaled criterion threshold", ok, f"x* = {res.threshold:.6f} vs 0.2320, {elapsed:.2f} s")


def test_08_lb_threshold():
    res, elapsed = _scan("lb")
    ok = abs(res.threshold - 0.2841) <= 2e-4 and elapsed < 10.0
    assert report(8, "Bloch-augmented baseline threshold", ok, f"x* = {res.threshold:.6f} vs 0.2841, {elapsed:.2f} s")


def test_09_bound_entanglement_sanity():
    ppt_ok = True
    for b in [round(0.1 * k, 1) for k in range(1, 10)]:
        v = check_ppt(horodecki_2x4(b))
        ppt_ok = ppt_ok and v.verdict == "INCONCLUSIVE" and v.value <= 1e-10
    detected = check_theorem1(FAMILY.state(0.3), ALPHA, BETA, 1).entangled
    ok = ppt_ok and detected
    assert report(9, "PPT-invisible family still detected", ok, f"ppt inconclusive: {ppt_ok}, x=0.3 detected: {detected}")


def test_10_soundness_fuzz():
    """No separable state may ever be flagged, across 10000 random ensembles."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    false_positives = 0
    checked = 0
    vb, lb = make_check("vb"), make_check("lb")

    for dims in [(2, 2), (2, 4), (3, 3)]:
        for i in range(3200):
            _, rho = random_separable(dims, int(rng.integers(1, 21)), rng.integers(0, 2**63))
            for _ in range(5):
                alpha, beta = rng.uniform(0, 2, 2)
                m = int(rng.integers(0, 4))
                if check_theorem1(rho, alpha, beta, m).entangled:
                    false_positives += 1
            alpha, beta = rng.uniform(0, 2, 2)
            m = int(rng.integers(1, 4))
            if vb(rho).entangled:
                false_positives += 1
            if lb(rho).entangled:
                false_positives += 1
            if make_check("isc", alpha=alpha, beta=beta, m=m)(rho).entangled:
                false_positives += 1
            checked += 1

    for i in range(400):
        _, rho = random_separable((2, 2, 2), int(rng.integers(1, 21)), rng.integers(0, 2**63))
        alphas = rng.uniform(0, 2, 3)
        if any(v.entangled for v in check_theorem2(rho, alphas, 1)):
            false_positives += 1
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = false_positives == 0 and checked == 10_000 and elapsed < 300.0
    assert report(
        10, "soundness fuzz", ok,
        f"{checked} separable states, {false_positives} false positives, {elapsed:.1f} s",
    )


def test_11_pure_product_equality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(500):
        d1, d2 = rng.choice([2, 3, 4], size=2)
        rho = product([random_pure(int(d1), 3 * i), random_pure(int(d2), 3 * i + 1)])
        alpha, beta = rng.uniform(0, 2, 2)
        m = int(rng.integers(1, 4))
        v = check_theorem1(rho, alpha, beta, m)
        worst = max(worst, abs(v.value - v.bound))
    ok = worst < 1e-8
    assert report(11, "pure product states sit on the bound", ok, f"max |value-bound| {worst:.2e}")


def test_12_tensor_criterion_consistency():
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(100):
        dims = (2, 4) if i % 2 else (3, 3)
        rho = DensityMatrix(random_density(int(np.prod(dims)), 500 + i).matrix, dims)
        alpha, beta = rng.uniform(0, 1.5, 2)
        m = int(rng.integers(1, 4))
        v1 = check_theorem1(rho, alpha, beta, m)
        v2 = check_theorem2(rho, (beta, alpha), m)[0]
        worst = max(worst, abs(v1.value - v2.value), abs(v1.bound - v2.bound))
    two_party_ok = worst < 1e-10

    ghz_hits = [v.entangled for v in check_theorem2(ghz(3), (1.0, 1.0, 1.0), 1)]
    ghz_ok = any(ghz_hits)

    eq_worst = 0.0
    for i in range(50):
        rho = product([random_pure(2, 900 + 3 * i + k) for k in range(3)])
        for v in check_theorem2(rho, rng.uniform(0, 2, 3), int(rng.integers(1, 4))):
            eq_worst = max(eq_worst, abs(v.value - v.bound))
    product_ok = eq_worst < 1e-8

    ok = two_party_ok and ghz_ok and product_ok
    assert report(
        12, "tensor criterion consistency", ok,
        f"two-party dev {worst:.2e}, GHZ detected {sum(ghz_hits)}/3 partitions, product dev {eq_worst:.2e}",
    )


def test_13_round_trip():
    worst = 0.0
    for i in range(67):
        rho = DensityMatrix(random_density(8, 2000 + i).matrix, (2, 4))
        err = np.linalg.norm(reconstruct_bipartite(decompose_bipartite(rho)).matrix - rho.matrix)
        worst = max(worst, err)
    for i in range(67):
        rho = DensityMatrix(random_density(9, 3000 + i).matrix, (3, 3))
        err = np.linalg.norm(reconstruct_bipartite(decompose_bipartite(rho)).matrix - rho.matrix)
        worst = max(worst, err)
    for i in range(66):
        # three-party states round-trip through the 1|23 bipartite cut
        mat = random_density(8, 4000 + i).matrix
        rho = DensityMatrix(mat, (2, 4))
        err = np.linalg.norm(reconstruct_bipartite(decompose_bipartite(rho, "rescaled")).matrix - mat)
        worst = max(worst, err)
    ok = worst < 1e-10
    assert report(13, "decompose/reconstruct round-trip", ok, f"max Frobenius err {worst:.2e}")


def test_14_cli_end_to_end(tmp_path):
    # cold-process scan must reproduce the in-process threshold
    cmd = [
        sys.executable, "-m", "hwsep.cli",
        "scan", "--family", "horodecki-mix", "--b", "0.9",
        "--criterion", "hw", "--alpha", "0.5", "--beta", "0.426401", "--m", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    cold = json.loads(out.stdout)["threshold"]
    warm = scan_threshold(FAMILY, make_check("hw", alpha=0.5, beta=0.426401, m=1)).threshold
    scan_ok = abs(cold - warm) < 1e-12 and abs(cold - THRESHOLD_HW) < 1e-4

    # JSON state round-trip changes no verdict value beyond 1e-12
    out = subprocess.run(
        [sys.executable, "-m", "hwsep.cli", "state", "--name", "horodecki", "--b", "0.9"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    path = tmp_path / "h.json"
    path.write_text(out.stdout)
    out = subprocess.run(
        [sys.executable, "-m", "hwsep.cli", "check", "--state", str(path),
         "--criterion", "hw", "--alpha", "0.5", "--beta-sq", "2/11", "--m", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    cli_value = json.loads(out.stdout)["value"]
    direct = check_theorem1(horodecki_2x4(0.9), ALPHA, BETA, 1).value
    rt_ok = abs(cli_value - direct) <= 1e-12

    # the emitted file parses back to the same state
    rho = parse_state_json(json.loads(path.read_text()))
    parse_ok = np.abs(rho.matrix - horodecki_2x4(0.9).matrix).max() < 1e-15
    assert parse_ok and np.abs(
        parse_state_json(state_to_json(rho)).matrix - rho.matrix
    ).max() == 0.0

    ok = scan_ok and rt_ok
    assert report(
        14, "CLI end-to-end", ok,
        f"cold x* = {cold:.6f} (warm diff {abs(cold - warm):.1e}), verdict round-trip diff {abs(cli_value - direct):.1e}",
    )
