"""Iterative and polynomial approximations over the engine surface.

Each function carries a (domain, tolerance) contract verified by the grid
sweeps in the test suite; outside the stated domain values are unspecified.
Magnitude-dependent initial guesses come from the highest-set-bit indicator
(msb_onehot), so round counts depend only on the configured iteration counts,
never on the data.

    reciprocal [2^-6, 2^12]  rel err <= 1e-3   (run at frac_bits >= 24)
    rsqrt      [2^-6, 2^10]  rel err <= 1e-2
    sigmoid    [-16, 16]     abs err <= 2e-2
    silu       [-16, 16]     abs err <= 2e-2
    log        [2^-6, 2^6]   abs err <= 2e-2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import tournament_max
from .ring import WORD_BITS, encode


@dataclass(frozen=True)
class ApproxConfig:
    exp_iters: int = 8  # squarings of the limit-form exponential core
    newton_iters_recip: int = 10
    newton_iters_rsqrt: int = 10

    def replace(self, **kv) -> "ApproxConfig":
        import dataclasses

        return dataclasses.replace(self, **kv)


DEFAULT_APPROX = ApproxConfig()

# power-basis fit of ln on [1, 2] (Chebyshev nodes, degree 6; max err ~3.5e-6)
_LN_MANTISSA_COEFFS = [
    -2.099126686928,
    4.204731361853,
    -3.649145745425,
    2.231405954187,
    -0.855653159860,
    0.185002419179,
    -0.017210670016,
]

_LN2 = math.log(2.0)


def _horner(e, z, coeffs):
    """Evaluate a power-basis polynomial highest-degree-first."""
    acc = e.const(z.shape, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = e.add_const(e.fmul(acc, z), c)
    return acc


def _onehot_dot(e, onehot, values: np.ndarray):
    """Sum of per-position public constants selected by a one-hot bit tensor.
    onehot is unscaled 0/1 on the last axis; the result is fixed-point."""
    enc = encode(values, e.cfg).data
    raw = e.raw(onehot)
    with np.errstate(over="ignore"):
        out = np.add.reduce(raw.data * enc, axis=-1, dtype=np.uint64)
    return e.wrap_like(onehot, out)


def _magnitude_table(e, fn):
    """values[j] = fn(exponent of a word whose leading one sits at bit j)."""
    f = e.cfg.frac_bits
    out = np.zeros(WORD_BITS)
    for j in range(WORD_BITS):
        e2 = j - f  # floor(log2 value) for positive fixed-point words
        out[j] = fn(e2)
    return out


def _clip_encodable(e, v: float) -> float:
    lim = e.cfg.max_abs
    return min(max(v, -lim * 0.99), lim * 0.99)


def sec_reciprocal(e, x, cfg: ApproxConfig = DEFAULT_APPROX):
    """Newton-Raphson y <- y(2 - xy) from a magnitude-normalized start."""
    onehot = e.msb_onehot(x)
    y = _onehot_dot(e, onehot, _magnitude_table(e, lambda e2: _clip_encodable(e, 0.75 * 2.0 ** (-e2))))
    for _ in range(cfg.newton_iters_recip):
        t = e.fmul(x, y)
        y = e.fmul(y, e.add_const(e.neg(t), 2.0))
    return y


def sec_rsqrt(e, x, cfg: ApproxConfig = DEFAULT_APPROX):
    """Newton-Raphson y <- y(3 - x y^2)/2 from a magnitude-normalized start."""
    onehot = e.msb_onehot(x)
    y = _onehot_dot(e, onehot, _magnitude_table(e, lambda e2: _clip_encodable(e, 2.0 ** (-e2 / 2.0))))
    for _ in range(cfg.newton_iters_rsqrt):
        t = e.fmul(x, e.fmul(y, y))
        h = e.add_const(e.neg(t), 3.0)
        y = e.trunc(e.mul_raw(y, h), e.cfg.frac_bits + 1)  # the /2 rides the rescale shift
    return y


def _exp_limit(e, x, cfg: ApproxConfig):
    """(1 + x/2^n)^(2^n) by n squarings; cheap core for non-positive inputs."""
    base = e.add_const(e.trunc(x, cfg.exp_iters), 1.0)
    for _ in range(cfg.exp_iters):
        base = e.fmul(base, base)
    return base


def sec_sigmoid(e, x, cfg: ApproxConfig = DEFAULT_APPROX):
    """1/(1 + exp(-x)) computed on the non-positive side and mirrored, so the
    exponential core never leaves its domain and the reciprocal sits in [1,2]."""
    s = e.gtz(x)
    a = e.mux(s, e.neg(x), x)  # -|x|
    den = e.add_const(_exp_limit(e, a, cfg), 1.0)
    y = e.const(den.shape, 0.75)
    for _ in range(cfg.newton_iters_recip):
        t = e.fmul(den, y)
        y = e.fmul(y, e.add_const(e.neg(t), 2.0))
    return e.mux(s, y, e.add_const(e.neg(y), 1.0))


def sec_silu(e, x, cfg: ApproxConfig = DEFAULT_APPROX):
    return e.fmul(x, sec_sigmoid(e, x, cfg))


def sec_log(e, x, cfg: ApproxConfig = DEFAULT_APPROX):
    """ln via mantissa/exponent split: normalize by the leading-one position,
    fit polynomial on [1, 2), add back e2 * ln 2."""
    onehot = e.msb_onehot(x)
    norm = _onehot_dot(e, onehot, _magnitude_table(e, lambda e2: _clip_encodable(e, 2.0 ** (-e2))))
    m = e.fmul(x, norm)
    ln_m = _horner(e, m, _LN_MANTISSA_COEFFS)
    ln_e2 = _onehot_dot(e, onehot, _magnitude_table(e, lambda e2: _clip_encodable(e, e2 * _LN2)))
    return e.add(ln_m, ln_e2)


def sec_max(e, x, axis: int = -1):
    """Tournament maximum along an axis; gtz+mux pairs, log-depth."""
    ax = axis % e.raw(x).data.ndim
    return tournament_max(e, x, axis=ax)
