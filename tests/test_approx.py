"""SiLU's approximation contract: the (domain, frac_bits, tolerance) row of
the table in `mpcnn.approx`, swept on the plain oracle over the whole
domain, plus a secure sample, the exact outer pieces, and the pinned rounds
and bytes."""

import numpy as np
import pytest

from mpcnn import approx
from mpcnn.engine import PlainEngine, SecureEngine
from mpcnn.ring import FixedPointConfig, decode, encode
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import Role

CFG = FixedPointConfig(16)
ACT_GRID = np.arange(-16.0, 16.0 + 2.0**-14, 2.0**-14)  # [-16, 16], both ends, every 4th word


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _plain(fn, x):
    return decode(fn(PlainEngine(CFG), encode(x, CFG)), CFG)


def test_silu_contract():
    err = np.abs(_plain(approx.sec_silu, ACT_GRID) - ACT_GRID * _sigmoid(ACT_GRID))
    assert err.max() <= 2e-2


@pytest.fixture(scope="module")
def rt():
    with LocalRuntime() as runtime:
        yield runtime


def share(ctx, xw):
    return share_input(ctx.role, xw if ctx.role is Role.P0 else None, Role.P0, xw.shape)


T = 8.0  # where silu switches pieces
EDGES = [-16.0, -T - 2.0**-16, -T, -T + 2.0**-16, -1.0, 0.0, 1.0, T - 2.0**-16, T, T + 2.0**-16, 16.0]


def test_secure_silu_sample(rt):
    # the secure path (gtz and the select on shares) meets the same contract,
    # on both sides of each switch point too
    x = np.concatenate([EDGES, np.random.default_rng(7).uniform(-16, 16, 59)])
    xw = encode(x, CFG)

    def fn(ctx):
        return reveal(ctx.session, approx.sec_silu(SecureEngine(ctx), share(ctx, xw)))

    got = decode(rt.run_session(fn, fn, cfg=CFG)[Role.P0], CFG)
    assert np.abs(got - x * _sigmoid(x)).max() <= 2e-2


def test_outer_pieces_are_exact(rt):
    # for |x| > T the Chebyshev terms reach ~7e8 and their local truncations
    # wrap, leaving garbage in about a third of the secure q values on these
    # inputs; the exact select must still give relu(x) bit for bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        mag = np.concatenate([[T + 2.0**-16, 16.0], rng.uniform(T + 2.0**-16, 16.0, 30)])
        x = np.concatenate([mag, -mag])
        xw = encode(x, CFG)

        def fn(ctx):
            return reveal(ctx.session, approx.sec_silu(SecureEngine(ctx), share(ctx, xw)))

        silu = rt.run_session(fn, fn, cfg=CFG)[Role.P0]
        assert np.array_equal(silu.data, np.where(x > 0, xw.data, 0))


def _costs(rt, fn, n):
    """(rounds, online bytes sent, dealer bytes received) of fn on n
    elements, for P0 and for P1."""
    xw = encode(np.random.default_rng(n).uniform(-16, 16, n), CFG)

    def party(ctx):
        xs = share(ctx, xw)
        before, dealt = ctx.session.measure(), ctx.session.dealer_transcript.bytes_recv
        fn(SecureEngine(ctx), xs)
        after = ctx.session.measure()
        return (after.rounds - before.rounds, after.bytes_sent - before.bytes_sent,
                ctx.session.dealer_transcript.bytes_recv - dealt)

    vals = rt.run_session(party, party, cfg=CFG)
    return vals[Role.P0], vals[Role.P1]


@pytest.mark.parametrize("n", [64 * 2, 100])
def test_exact_cost(rt, n):
    # derived from the circuit: one gtz on the 2n stacked [x + T, x - T]
    # (at the default domain cmp_bits = 31: the low 4 bytes of the masked
    # word, then a carry tree bit-sliced 64 elements to a word whose first
    # level is local and whose 4 others open 23 + 11 + 5 + 2 = 41 rows; 5
    # openings), ring products on n (u), n (T_2), 2n (T_3, T_4) and 4n
    # (T_5..T_8) elements, and the select on the 2n stacked pieces. Rounds:
    # gtz's mask rides u's product and its AND levels 1-3 the three
    # Chebyshev products; level 4 and the select run alone, 4 + 1 + 1.
    # Each product element opens two words and costs P0 one dealt
    # correction word; gtz's mask costs P0 the low 4 bytes of one, and its
    # 15 lane-pair rows and 15 + 7 + 3 + 1 fan-out product rows one word
    # each; each selected element opens one word and one packed bit and
    # costs P0 two correction words; P1 expands its halves from its seed.
    assert CFG.cmp_bits == 31
    m, words = 2 * n, -(-2 * n // 64)
    gtz_online = 4 * m + 8 * 41 * words
    gtz_dealer = 4 * m + 8 * (15 + 26) * words
    select_online, select_dealer = 8 * m + -(-m // 8), 16 * m
    products = 8 * n
    online = gtz_online + 16 * products + select_online
    dealer = gtz_dealer + 8 * products + select_dealer
    assert _costs(rt, approx.sec_silu, n) == ((6, online, dealer), (6, online, 0))
    if n % 64 == 0:  # per element per party
        assert (online / n, dealer / n) == (162.5, 114.25)
