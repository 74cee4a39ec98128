"""Polynomial approximations over the engine surface.

Each function carries a (domain, tolerance) contract verified by the grid
sweeps in the test suite; outside the stated domain values are unspecified.
Round counts never depend on the data; they are given at the default
comparison domain cmp_bits = 31 (one more at cmp_bits = 63):

    fn          domain        tolerance         rounds
    sigmoid     [-16, 16]     abs err <= 2e-2   12
    silu        [-16, 16]     abs err <= 2e-2   11

Both are piecewise with T = 8: on -T < x <= T they use

    silu(x)    = x/2 + g(x),          g(x) = (x/2) tanh(x/2), even
    sigmoid(x) = 1/2 + (x/T) r(x),    r(x) = (sigmoid(x) - 1/2) / (x/T), even

with g and r as degree-8 Chebyshev series in t = 2(x/T)^2 - 1, which lies in
[-1, 1] there, so every Chebyshev term and every truncated value is small.
Outside, silu is relu(x) and sigmoid is [x > 0]. One exact select by the
XOR-shared comparison bits picks the piece, so for |x| > T the output is
relu(x), or the encoded 0 or 1, bit for bit, even though the series'
truncations there may wrap and leave garbage that the select discards (see
`_piecewise`).
"""

from __future__ import annotations

from .engine import e_stack, e_sum, e_take

_T_BITS = 3  # sigmoid and silu switch pieces at |x| = T = 2^3, so x/T is a local shift
_T = float(1 << _T_BITS)

# Chebyshev coefficients c_0..c_8 in t = 2(x/T)^2 - 1 at T = 8, minimax
# (Remez) on t in [-1, 1]: g(x) = (x/2) tanh(x/2) with max err 1.9e-3, and
# r(x) = (sigmoid(x) - 1/2) / (x/T) with max err 1.5e-3
_SILU_G = [
    2.476224499996,
    1.803163408202,
    -0.389588085959,
    0.154973701077,
    -0.069196598667,
    0.031801227976,
    -0.014730282215,
    0.00683816092,
    -0.004050933676,
]
_SIGMOID_R = [
    0.917978828048,
    -0.597845406098,
    0.261314860201,
    -0.119578357284,
    0.055328704906,
    -0.025677351862,
    0.011926612805,
    -0.005541014855,
    0.003283318975,
]


def _chebyshev_terms(e, t):
    """[T_1(t), ..., T_8(t)] in three product rounds, one stacked fmul each,
    from T_{m+n} = 2 T_m T_n - T_{n-m} (T_0 = 1). The factor 2 is taken
    before the product, so each term carries one truncation."""
    ts = {0: e.const(t.shape, 1.0), 1: t}
    for pairs in (((1, 1),), ((1, 2), (2, 2)), ((2, 3), (3, 3), (3, 4), (4, 4))):
        prod = e.fmul(e_stack(e, [e.mul_const_int(ts[m], 2) for m, _ in pairs]),
                      e_stack(e, [ts[n] for _, n in pairs]))
        for i, (m, n) in enumerate(pairs):
            ts[m + n] = e.sub(e_take(e, prod, i, axis=0), ts[n - m])
    return [ts[k] for k in range(1, 9)]


def _series(e, terms, coeffs, const: float):
    """const + sum c_k * term_k for public c_k, with a single truncation."""
    scale = 1 << e.cfg.frac_bits
    acc = e_sum(e, e_stack(e, [e.mul_const_int(v, round(c * scale)) for v, c in zip(terms, coeffs)]), axis=0)
    return e.add_const(e.trunc(acc), const)


def _piecewise(e, x, inner, high):
    """0 for x <= -T, inner(y, [T_1(t), ..., T_8(t)]) for -T < x <= T, and
    `high` for x > T, where y = x/T and t = 2y^2 - 1. 11 rounds plus
    whatever `inner` adds.

    One gtz on the stacked [x + T, x - T] gives a = [x > -T] and b = [x > T]
    as XOR-shared bits (6 rounds; on the domain [-16, 16] both lie far
    inside the comparison domain); y is a local truncation, t one product
    and the terms three more. The select a*q + b*(high - q) is one exact
    `arith.select` on stacked operands (1 round): it is 0, q or high, bit for
    bit. For |x| > T, t reaches 7 and T_8(t) about 7e8, so the truncations
    inside q may wrap and q is garbage; that is safe only because q reaches
    the output through this exact select, where it is multiplied by 0 or
    cancelled."""
    ab = e.gtz(e_stack(e, [e.add_const(x, _T), e.add_const(x, -_T)]))
    y = e.trunc(x, _T_BITS)
    t = e.add_const(e.fmul(e.mul_const_int(y, 2), y), -1.0)
    q = inner(y, _chebyshev_terms(e, t))
    return e_sum(e, e.mul_raw(ab, e_stack(e, [q, e.sub(high, q)])), axis=0)


def sec_sigmoid(e, x):
    """1/2 + (x/T) r(x) inside, [x > 0] outside (see the module docstring).
    12 rounds."""
    def inner(y, ts):
        return e.add_const(e.fmul(y, _series(e, ts, _SIGMOID_R[1:], _SIGMOID_R[0])), 0.5)

    return _piecewise(e, x, inner, e.const(x.shape, 1.0))


def sec_silu(e, x):
    """x/2 + g(x) inside, relu(x) outside (see the module docstring).
    11 rounds."""
    def inner(y, ts):
        return _series(e, [x] + ts, [0.5] + _SILU_G[1:], _SILU_G[0])

    return _piecewise(e, x, inner, x)
