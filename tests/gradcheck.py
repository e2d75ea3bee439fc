"""Test-only autodiff helpers: the finite-difference gradient checker, a
differentiable total, and the explicit sigmoid/tanh ops that the
unfused ConvLSTM gate reference in ``test_layers`` is built from."""

from __future__ import annotations

import numpy as np

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor, no_grad
from stationcast.errors import ContractError

# The relative rounding of one float64 operation: the spacing of floats at 1.
ROUNDING = float(np.finfo(np.float64).eps)


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
    ``max(|analytic - numeric| - noise, 0) / max(|analytic|, |numeric|, 1e-12)``.
    ``noise`` is the central difference's own error at that coordinate: its
    rounding, ``ROUNDING * sum(|f(x ± eps)|) / eps``, plus, where that alone
    does not cover the difference, its truncation ``eps² |f'''| / 6``,
    estimated from a second difference with step ``2 eps`` (Richardson).
    Neither term depends on the tape gradient, so a gradient still fails
    wherever it is wrong by more than central differences can resolve.
    ``f`` must be deterministic; ``x`` may appear in ``f`` through a closure
    (the tensor object itself is perturbed in place).
    """
    if eps <= 0:
        raise ContractError("grad_check requires eps > 0")
    previous_rg, previous_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    flat = x.data.reshape(-1)

    def central(i: int, step: float) -> tuple[float, float]:
        """The central difference at coordinate ``i`` and its rounding."""
        saved = flat[i]
        sums = []
        for moved in (saved + step, saved - step):
            flat[i] = moved
            values = f(x).data
            sums.append((float(values.sum()), float(np.abs(values).sum())))
        flat[i] = saved
        (hi, hi_abs), (lo, lo_abs) = sums
        return (hi - lo) / (2.0 * step), ROUNDING * max(hi_abs, lo_abs) / step

    try:
        out = f(x)
        loss = out if out.size == 1 else total(out)
        loss.backward()
        analytic = np.zeros(flat.size) if x.grad is None else x.grad.reshape(-1)

        numeric = np.zeros(flat.size)
        noise = np.zeros(flat.size)
        with no_grad():
            for i in range(flat.size):
                numeric[i], noise[i] = central(i, eps)
                if abs(analytic[i] - numeric[i]) > noise[i]:
                    wide, _ = central(i, 2.0 * eps)
                    noise[i] += abs(wide - numeric[i]) / 3.0
    finally:
        x.requires_grad = previous_rg
        x.grad = previous_grad

    excess = np.maximum(np.abs(analytic - numeric) - noise, 0.0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((excess / denom).max())
