"""The local ops that `engine.Engine` writes once: on shares they reconstruct
to the plain oracle's words and send nothing."""

import numpy as np
import pytest

from mpcnn.engine import PlainEngine, SecureEngine
from mpcnn.ring import FixedPointConfig, encode
from mpcnn.runtime import LocalRuntime
from mpcnn.sharing import reveal, share_input
from mpcnn.transport import Role

CFG = FixedPointConfig(16)
RNG = np.random.default_rng(17)
N = 200
X = encode(RNG.uniform(-4, 4, N), CFG)  # P0's input
Y = encode(RNG.uniform(-4, 4, N), CFG)  # P1's input

OPS = {
    "add": lambda e, x, y: e.add(x, y),
    "sub": lambda e, x, y: e.sub(x, y),
    "add_const": lambda e, x, y: e.add_const(x, -3.25),
    "mul_const_int": lambda e, x, y: e.mul_const_int(x, -7),
    "mul_const": lambda e, x, y: e.mul_const(y, 0.3),
    "fmul": lambda e, x, y: e.fmul(x, y),
}
LOCAL = ("add", "sub", "add_const", "mul_const_int", "mul_const")  # everything but fmul
TRUNCATED = ("mul_const", "fmul")  # each party shifts its own share


@pytest.fixture(scope="module")
def secure():
    """{op: (revealed words, online bytes sent, rounds)}, all from one session."""
    def party(ctx):
        e = SecureEngine(ctx)
        x = share_input(ctx.role, X if ctx.role is Role.P0 else None, Role.P0, X.shape)
        y = share_input(ctx.role, Y if ctx.role is Role.P1 else None, Role.P1, Y.shape)
        out = {}
        for name, op in OPS.items():
            before = ctx.session.measure()
            z = op(e, x, y)
            after = ctx.session.measure()
            out[name] = (z, after.bytes_sent - before.bytes_sent, after.rounds - before.rounds)
        return {name: (reveal(ctx.session, z), sent, rounds) for name, (z, sent, rounds) in out.items()}

    with LocalRuntime() as rt:
        return rt.run_session(party, party, cfg=CFG)


@pytest.mark.parametrize("name", LOCAL)
def test_local_ops_send_nothing(secure, name):
    for role in (Role.P0, Role.P1):
        assert secure[role][name][1:] == (0, 0)


def test_fmul_is_one_round(secure):
    for role in (Role.P0, Role.P1):
        assert secure[role]["fmul"][1:] == (2 * 8 * N, 1)


@pytest.mark.parametrize("name", OPS)
def test_secure_matches_oracle(secure, name):
    want = OPS[name](PlainEngine(CFG), X, Y)
    got = secure[Role.P0][name][0]
    assert got == secure[Role.P1][name][0]
    if name in TRUNCATED:
        # the local truncation's documented 1 LSB; a wrap-scale error (chance
        # |value| / 2^64 per element, here below 2^-27) would fail it
        assert np.abs((got - want).signed()).max() <= 1
    else:
        assert got == want
