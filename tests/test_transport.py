"""Channel semantics: byte counting, round counting, backend equivalence."""

import socket
import threading

import numpy as np
import pytest

from mpcnn.transport import (
    HEADER_BYTES,
    InProcFabric,
    InProcHub,
    PeerDisconnected,
    ProtocolError,
    Role,
    Session,
    Transcript,
)
from mpcnn.runtime import run_pair_raw

from conftest import inproc_fabrics, tcp_fabrics


class TestTranscript:
    def test_fresh_session_all_zero(self):
        t = Transcript()
        assert t.bytes_sent == 0 and t.bytes_recv == 0 and t.rounds == 0

    def test_payload_bytes_only(self):
        def fn(sess):
            sess.exchange("blob", b"x" * 1024)
            return sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for t in vals.values():
            assert t.bytes_sent == 1024
            assert t.bytes_recv == 1024
            assert t.header_bytes_sent == HEADER_BYTES
            assert t.rounds == 1

    def test_batched_payload_is_one_round(self):
        # two tensors concatenated into one phase count a single round
        def fn(sess):
            sess.exchange("pair", b"a" * 64 + b"b" * 64)
            return sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert all(t.rounds == 1 for t in vals.values())
        assert all(t.bytes_sent == 128 for t in vals.values())

    def test_rounds_monotone(self):
        def fn(sess):
            seen = []
            for i in range(5):
                sess.exchange(f"r{i}", bytes(8))
                seen.append(sess.measure().rounds)
            return seen

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        for seq in vals.values():
            assert seq == sorted(seq) == [1, 2, 3, 4, 5]


class TestExchange:
    def test_swap(self):
        vals = run_pair_raw(inproc_fabrics(), {Role.P0: lambda s: s.exchange("t", b"A"),
                                                Role.P1: lambda s: s.exchange("t", b"B")})
        assert vals[Role.P0] == b"B"
        assert vals[Role.P1] == b"A"

    def test_empty_no_round(self):
        def fn(sess):
            sess.exchange("t", b"")
            return sess.measure().rounds

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] == 0 and vals[Role.P1] == 0

    def test_length_mismatch(self):
        with pytest.raises(ProtocolError):
            run_pair_raw(inproc_fabrics(), {Role.P0: lambda s: s.exchange("t", b"abc"),
                                            Role.P1: lambda s: s.exchange("t", b"defg")})

    @pytest.mark.parametrize("fabrics", [inproc_fabrics, tcp_fabrics], ids=["inproc", "tcp"])
    def test_asymmetric_swap_is_one_round(self, fabrics):
        # P0 sends 8 bytes and P1 24; each side checks the length it expects
        # from the other
        def fn(sess):
            mine, theirs = (b"a" * 8, 24) if sess.role is Role.P0 else (b"b" * 24, 8)
            return sess.exchange("t", mine, peer_len=theirs), sess.measure().counters()

        vals = run_pair_raw(fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] == (b"b" * 24, (8, 24, 1, (("t", 8, 24, 1),)))
        assert vals[Role.P1] == (b"a" * 8, (24, 8, 1, (("t", 24, 8, 1),)))

    @pytest.mark.parametrize("sent", [16, 32])
    def test_asymmetric_wrong_peer_length_raises(self, monkeypatch, sent):
        # over TCP, P0 expects 24 bytes and gets `sent`: it raises at once,
        # neither waiting for the missing bytes nor splitting the extra ones
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "5000")

        def fn(sess):
            if sess.role is Role.P0:
                return sess.exchange("t", bytes(8), peer_len=24)
            return sess.exchange("t", bytes(sent), peer_len=8)

        with pytest.raises(ProtocolError, match=f"expected 24, got {sent}"):
            run_pair_raw(tcp_fabrics(), {Role.P0: fn, Role.P1: fn})

    def test_concurrent_sessions_isolated(self):
        # ten sessions exchange different sizes; each transcript sees only its own
        hub = InProcHub()
        sizes = [(i + 1) * 16 for i in range(10)]
        results = {}
        lock = threading.Lock()

        def party(role):
            def run_one(sid):
                sess = Session(InProcFabric(hub, role), sid, role)
                sess.exchange("blob", bytes(sizes[sid]))
                with lock:
                    results[(role, sid)] = sess.measure()

            threads = [threading.Thread(target=run_one, args=(sid,)) for sid in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        t0 = threading.Thread(target=party, args=(Role.P0,))
        t1 = threading.Thread(target=party, args=(Role.P1,))
        t0.start(), t1.start()
        t0.join(), t1.join()
        for sid in range(10):
            for role in (Role.P0, Role.P1):
                t = results[(role, sid)]
                assert t.bytes_sent == sizes[sid]
                assert t.rounds == 1


class TestDirected:
    def test_directed_send_recv(self):
        def p0(sess):
            got = sess.recv_from_peer("out")
            return got, sess.measure()

        def p1(sess):
            sess.send_to_peer("out", b"share")
            return sess.measure()

        vals = run_pair_raw(inproc_fabrics(), {Role.P0: p0, Role.P1: p1})
        got, t0 = vals[Role.P0]
        assert got == b"share"
        assert t0.bytes_recv == 5 and t0.bytes_sent == 0 and t0.rounds == 1
        t1 = vals[Role.P1]
        assert t1.bytes_sent == 5 and t1.bytes_recv == 0 and t1.rounds == 1
        assert t1.tags["out"].bytes_recv == 0  # one-sided by construction

    def test_seq_enforced(self):
        hub = InProcHub()

        def p0(sess):
            sess._raw_send(Role.P1, "t", b"x")  # seq 0
            sess._send_seq[Role.P1] = 5  # corrupt the counter
            sess._raw_send(Role.P1, "t", b"y")  # seq 5

        def p1(sess):
            sess._raw_recv(Role.P0, "t")
            sess._raw_recv(Role.P0, "t")

        with pytest.raises(ProtocolError):
            run_pair_raw(inproc_fabrics(hub), {Role.P0: p0, Role.P1: p1})


class TestDisconnect:
    def test_recv_on_closed_channel(self):
        hub = InProcHub()
        sess = Session(InProcFabric(hub, Role.P0), 1, Role.P0)
        hub.close()
        with pytest.raises(PeerDisconnected):
            sess.recv_from_peer("t")


def random_script(seed):
    """A protocol script: list of (kind, size) steps both parties follow."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(rng.integers(3, 12)):
        kind = rng.choice(["xchg", "p1_to_p0", "p0_to_p1"])
        steps.append((str(kind), int(rng.integers(1, 4096))))
    return steps


def run_script(sess, steps):
    for i, (kind, size) in enumerate(steps):
        tag = f"s{i}"
        if kind == "xchg":
            sess.exchange(tag, bytes(size))
        elif kind == "p1_to_p0":
            if sess.role is Role.P1:
                sess.send_to_peer(tag, bytes(size))
            else:
                sess.recv_from_peer(tag)
        else:
            if sess.role is Role.P0:
                sess.send_to_peer(tag, bytes(size))
            else:
                sess.recv_from_peer(tag)
    return sess.measure().counters()


class TestBackendEquivalence:
    def test_inproc_vs_tcp_transcripts(self):
        # byte-identical transcripts for the same protocol run, 20 random scripts
        for seed in range(20):
            steps = random_script(seed)
            fns = {Role.P0: lambda s: run_script(s, steps), Role.P1: lambda s: run_script(s, steps)}
            inproc = run_pair_raw(inproc_fabrics(), fns)
            tcp = run_pair_raw(tcp_fabrics(), fns)
            assert inproc[Role.P0] == tcp[Role.P0]
            assert inproc[Role.P1] == tcp[Role.P1]


class TestTcp:
    def test_no_delay_on_both_ends(self):
        # Nagle would hold each frame's tail segment for the peer's ACK
        def fn(sess):
            sock = sess.fabric._conns[sess.role.peer].sock
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        vals = run_pair_raw(tcp_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] and vals[Role.P1]
