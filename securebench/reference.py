"""Float64 reference for the benchmark's networks, with an a-priori bound on
how far the secure fixed-point output may lie from it.

This module imports numpy only, never mpcnn: it is the independent check of
what the secure engine computes. The architectures below mirror
models.py layer by layer.

The bound is carried per channel through the network:

- encoding rounds every input, weight and bias to the nearest multiple of
  2^-FRAC_BITS, an error of at most half an LSB;
- every local truncation (the rescale after a product of two fixed-point
  values) errs by less than 1 LSB per party, so 2 LSB in all;
- a product of encoded operands adds sum|W_enc| * eps_in + LSB/2 * sum|x|;
- ReLU, max-pool, upsample and concat are exact on shares and 1-Lipschitz;
- `approx.sec_silu` is documented to err by at most SILU_ABS_ERR on
  [-16, 16]; silu is SILU_LIPSCHITZ-Lipschitz, so a SiLU layer maps eps to
  SILU_LIPSCHITZ * eps + SILU_ABS_ERR, provided its input lies in the domain.

The local truncation also fails outright with probability |v| / 2^64 per
element (v the raw product); that event is not covered by the bound.
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 16
LSB = 2.0 ** -FRAC_BITS
HALF_LSB = LSB / 2
TRUNC_ERR = 2 * LSB
SILU_DOMAIN = 16.0
SILU_ABS_ERR = 2e-2
SILU_LIPSCHITZ = 1.0998  # max |d/dx x*sigmoid(x)|, reached near x = 2.4


class DomainError(ValueError):
    """A SiLU input would leave the domain of the documented contract."""


def _conv(x, w, b, stride, pad):
    c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((oc, oh, ow))
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, dy : dy + stride * (oh - 1) + 1 : stride, dx : dx + stride * (ow - 1) + 1 : stride]
            out += np.einsum("oc,chw->ohw", w[:, :, dy, dx], patch)
    return out + b[:, None, None]


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _maxpool(x, k, stride):
    c, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.full((c, oh, ow), -np.inf)
    for dy in range(k):
        for dx in range(k):
            out = np.maximum(out, x[:, dy : dy + stride * (oh - 1) + 1 : stride, dx : dx + stride * (ow - 1) + 1 : stride])
    return out


def _enc_abs(a):
    """Largest magnitude the encoded value can have."""
    return np.abs(a) + HALF_LSB


class _Net:
    """Evaluates the float64 network and the error bound side by side. Each
    value is a pair (x, eps) with eps broadcastable per channel."""

    def __init__(self, weights, upto=None):
        self.weights = weights
        self.upto = upto
        self.peak_silu_input = 0.0

    def conv(self, name, v, stride, pad):
        x, eps = v
        w, b = self.weights[name]["w"], self.weights[name]["b"]
        y = _conv(x, w, b, stride, pad)
        a = _enc_abs(w).sum(axis=(2, 3))  # (oc, ic)
        fan_in = w[0].size
        x_mag = np.abs(x).max() + eps.max()
        e = a @ eps + HALF_LSB * fan_in * x_mag + TRUNC_ERR + HALF_LSB
        return self._done(name, (y, e))

    def linear(self, name, v):
        x, eps = v
        w, b = self.weights[name]["w"], self.weights[name]["b"]
        y = x @ w + b[0]
        x_mag = np.abs(x).max() + eps.max()
        e = _enc_abs(w).T @ eps + HALF_LSB * w.shape[0] * x_mag + TRUNC_ERR + HALF_LSB
        return self._done(name, (y, e))

    def _done(self, name, v):
        if name == self.upto:
            raise _Stop(v[0])
        return v

    @staticmethod
    def relu(v):
        return np.maximum(v[0], 0.0), v[1]

    def silu(self, v):
        x, eps = v
        peak = float((np.abs(x) + eps[:, None, None]).max())
        self.peak_silu_input = max(self.peak_silu_input, peak)
        if peak > SILU_DOMAIN:
            raise DomainError(f"SiLU input may reach {peak:.3f}, outside +-{SILU_DOMAIN}")
        return _silu(x), SILU_LIPSCHITZ * eps + SILU_ABS_ERR

    @staticmethod
    def mean(v):
        """Exact share sum, then a product with the encoded public 1/n."""
        x, eps = v
        n = x.shape[1] * x.shape[2]
        c_enc = np.rint(2.0**FRAC_BITS / n) / 2.0**FRAC_BITS
        x_mag = np.abs(x).max() + eps.max()
        e = n * c_enc * eps + n * x_mag * abs(c_enc - 1.0 / n) + TRUNC_ERR
        return x.mean(axis=(1, 2)), e

    @staticmethod
    def maxpool(v, k, stride):
        return _maxpool(v[0], k, stride), v[1]

    @staticmethod
    def upsample(v):
        return np.repeat(np.repeat(v[0], 2, axis=1), 2, axis=2), v[1]

    @staticmethod
    def concat(vs):
        return np.concatenate([v[0] for v in vs]), np.concatenate([v[1] for v in vs])


class _Stop(Exception):
    def __init__(self, value):
        self.value = value


def _compactcnn(n, v):
    v = n.conv("conv", v, 1, 0)
    v = n.relu(v)
    v = n.mean(v)
    return n.linear("fc", v)


def _detector(n, v):
    v = n.silu(n.conv("c1", v, 2, 1))
    f8 = n.silu(n.conv("c2", v, 2, 1))
    v = n.conv("c3", n.maxpool(f8, 2, 2), 1, 1)
    v = n.concat([n.upsample(v), f8])
    v = n.conv("c4", v, 1, 1)
    return n.conv("head", v, 1, 0)


_NETS = {"compactcnn": _compactcnn, "detector": _detector}


def forward(model: str, weights: dict, x: np.ndarray, upto: str | None = None) -> np.ndarray:
    """Float64 output of the network, or of layer `upto` before its
    activation. Layers after `upto` need no weights."""
    net = _Net(weights, upto)
    try:
        return _NETS[model](net, (x, np.full(x.shape[0], HALF_LSB)))[0]
    except _Stop as stop:
        return stop.value


def forward_with_bound(model: str, weights: dict, x: np.ndarray):
    """(output, per-element bound on |secure - output|, peak SiLU input).
    Raises DomainError if a SiLU input could leave [-16, 16]."""
    net = _Net(weights)
    y, eps = _NETS[model](net, (x, np.full(x.shape[0], HALF_LSB)))
    bound = eps[:, None, None] * np.ones_like(y) if y.ndim == 3 else eps * np.ones_like(y)
    return y, bound, net.peak_silu_input
