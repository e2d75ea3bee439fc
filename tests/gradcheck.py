"""Test-only autodiff helpers: the finite-difference gradient checker, a
differentiable total, and the explicit sigmoid/tanh ops that the
unfused ConvLSTM gate reference in ``test_layers`` is built from."""

from __future__ import annotations

import numpy as np

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor, no_grad
from stationcast.errors import ContractError


def total(t) -> Tensor:
    """The sum of every element of ``t`` as a ``(1, 1)`` tensor; its backward
    hands each element a gradient of exactly 1.0."""
    t = ad.as_tensor(t)
    return ad.matmul(ad.reshape(t, (1, t.size)), np.ones((t.size, 1)))


def sigmoid(x) -> Tensor:
    x = ad.as_tensor(x)
    # exp(-|x|) never overflows; the sign picks the matching form.
    z = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        return (g * s * (1.0 - s),)

    return ad._record(s, (x,), backward)


def tanh(x) -> Tensor:
    x = ad.as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - t * t),)

    return ad._record(t, (x,), backward)


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the tape gradient of ``sum(f(x))`` against central differences.

    Returns the maximum over coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    ``f`` must be deterministic; ``x`` may appear in ``f`` through a closure
    (the tensor object itself is perturbed in place).
    """
    if eps <= 0:
        raise ContractError("grad_check requires eps > 0")
    previous_rg, previous_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        out = f(x)
        loss = out if out.size == 1 else total(out)
        loss.backward()
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

        numeric = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                hi = float(f(x).data.sum())
                flat[i] = saved - eps
                lo = float(f(x).data.sum())
                flat[i] = saved
                numeric.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    finally:
        x.requires_grad = previous_rg
        x.grad = previous_grad

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())
