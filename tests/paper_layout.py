"""The paper's S^m and W^m laid out entry by entry, as a reference for the kernel.

Each entry is a trace Tr(rho O) against an explicit Kronecker product of
per-party operators, with m identity slots per party, so nothing here
shares code with hwsep's coefficient tensor.
"""

import numpy as np

from hwsep import basis


def reference_slots(d, weight, m, normalization):
    """The paper's per-party operator list: m copies of weight*I, then the basis."""
    ops = list(basis(d))
    if normalization == "rescaled":
        ops = [np.sqrt(d / 2) * q for q in ops]  # rescaled-basis expansion coefficients
    return [weight * np.eye(d)] * m + ops


def reference_s(rho, alpha, beta, m, normalization):
    """S^m_{alpha,beta} laid out as in the paper, with m identity slots per party.

    beta weights party 1's identity slots (the block beta*omega_m(s)^t) and
    alpha weights party 2's.
    """
    d1, d2 = rho.dims
    rows = reference_slots(d1, beta, m, normalization)
    cols = reference_slots(d2, alpha, m, normalization)
    return np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in cols] for a in rows])


def reference_w(rho, alphas, m, normalization):
    """Paper-layout coefficient tensor W^m, m identity slots per axis."""
    slots = [reference_slots(d, a, m, normalization) for d, a in zip(rho.dims, alphas)]
    w = np.zeros([len(s) for s in slots])
    for index in np.ndindex(*w.shape):
        op = np.eye(1)
        for axis, k in enumerate(index):
            op = np.kron(op, slots[axis][k])
        w[index] = np.trace(rho.matrix @ op).real
    return w


def closed_form_s_bound(d1, d2, alpha, beta, m, normalization):
    """The paper's bipartite bound on ||S^m_{alpha,beta}||_tr, as one square root."""
    if normalization == "standard":
        return np.sqrt((m * beta**2 + d1 - 1) * (m * alpha**2 + d2 - 1))
    return 0.5 * np.sqrt((2 * m * beta**2 + d1 * d1 - d1) * (2 * m * alpha**2 + d2 * d2 - d2))
