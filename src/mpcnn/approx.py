"""Polynomial approximation of SiLU over the engine surface.

The approximation carries a (domain, tolerance) contract verified by the
grid sweep in the test suite; outside the stated domain values are
unspecified. Its round count never depends on the data; it is given at the
default comparison domain cmp_bits = 31 (one more at cmp_bits = 63):

    fn          domain        tolerance         rounds
    silu        [-16, 16]     abs err <= 2e-2   7

It is piecewise with T = 8: on -T < x <= T it uses

    silu(x) = x/2 + g(x),    g(x) = (x/2) tanh(x/2), even

with g as a degree-8 Chebyshev series in t = 2(x/T)^2 - 1, which lies in
[-1, 1] there, so every Chebyshev term and every truncated value is small.
Outside, silu is relu(x). One exact select by the XOR-shared comparison bits
picks the piece, so for |x| > T the output is relu(x) bit for bit, even
though the series' truncations there may wrap and leave garbage that the
select discards (see `sec_silu`).
"""

from __future__ import annotations

from .engine import e_stack, e_sum, e_take

_T_BITS = 3  # silu switches pieces at |x| = T = 2^3, so x/T is a local shift
_T = float(1 << _T_BITS)

# Chebyshev coefficients c_0..c_8 of g(x) = (x/2) tanh(x/2) in
# t = 2(x/T)^2 - 1 at T = 8, minimax (Remez) on t in [-1, 1], max err 1.9e-3
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


def sec_silu(e, x):
    """0 for x <= -T, q = x/2 + g(x) for -T < x <= T and x for x > T (see
    the module docstring). 7 rounds.

    One gtz on the stacked [x + T, x - T] gives a = [x > -T] and b = [x > T]
    as XOR-shared bits (6 openings; on the domain [-16, 16] both lie far
    inside the comparison domain). y = x/T is a local truncation, t =
    2y^2 - 1 one product and T_1..T_8(t) three more. On shares gtz's mask
    and first 3 AND levels ride those 4 product rounds, and its last 2
    levels run when the select reads the bits: 4 + 2 + 1 rounds. q sums x
    and the terms with public coefficients under a single truncation. The
    select a*q + b*(x - q) is one exact `arith.select` on stacked operands
    (1 round): it is 0, q or x, bit for bit. For |x| > T, t reaches 7 and
    T_8(t) about 7e8, so the truncations inside q may wrap and q is garbage;
    that is safe only because q reaches the output through this exact
    select, where it is multiplied by 0 or cancelled."""
    ab = e.gtz(e_stack(e, [e.add_const(x, _T), e.add_const(x, -_T)]))
    y = e.trunc(x, _T_BITS)
    t = e.add_const(e.fmul(e.mul_const_int(y, 2), y), -1.0)
    scale = 1 << e.cfg.frac_bits
    terms = [e.mul_const_int(v, round(c * scale))
             for v, c in zip([x] + _chebyshev_terms(e, t), [0.5] + _SILU_G[1:])]
    q = e.add_const(e.trunc(e_sum(e, e_stack(e, terms), axis=0)), _SILU_G[0])
    return e_sum(e, e.mul_raw(ab, e_stack(e, [q, e.sub(x, q)])), axis=0)
