"""Channel semantics: byte counting, round counting, backend equivalence."""

import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mpcnn import transport
from mpcnn.transport import (
    InProcFabric,
    Mailbox,
    Message,
    PeerDisconnected,
    ProtocolError,
    Role,
    Session,
    SessionTimeout,
    TcpFabric,
    Transcript,
    TransportError,
)
from mpcnn.runtime import run_pair_raw

from conftest import free_port, inproc_fabrics, tcp_fabrics


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

    @pytest.mark.parametrize("fabrics", [inproc_fabrics, tcp_fabrics], ids=["inproc", "tcp"])
    def test_merged_parts_share_one_frame_and_round(self, fabrics):
        # two symmetric parts in one frame: one round, and each part's bytes
        # and one phase under its own tag
        def fn(sess):
            mine = [bytes([sess.role.value]) * 8, bytes([2 + sess.role.value]) * 3]
            return sess.exchange(["a", "b"], mine), sess.measure().counters()

        vals = run_pair_raw(fabrics(), {Role.P0: fn, Role.P1: fn})
        assert vals[Role.P0] == (b"\x01" * 8 + b"\x03" * 3, (11, 11, 1, (("a", 8, 8, 1), ("b", 3, 3, 1))))
        assert vals[Role.P1] == (b"\x00" * 8 + b"\x02" * 3, (11, 11, 1, (("a", 8, 8, 1), ("b", 3, 3, 1))))

    def test_merged_composition_mismatch_raises(self, monkeypatch):
        # the same tags and total length, split differently: each side
        # refuses the other's frame at once
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "5000")

        def fn(sess):
            sizes = (8, 3) if sess.role is Role.P0 else (3, 8)
            return sess.exchange(["a", "b"], [bytes(k) for k in sizes])

        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="tag mismatch"):
            run_pair_raw(tcp_fabrics(), {Role.P0: fn, Role.P1: fn})
        assert time.perf_counter() - t0 < 5.0

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

    @pytest.mark.parametrize("fabrics", [inproc_fabrics, tcp_fabrics], ids=["inproc", "tcp"])
    def test_concurrent_sessions_isolated(self, monkeypatch, fabrics):
        # ten sessions exchange different sizes over one fabric per party (one
        # TCP connection carries all ten); each transcript sees only its own.
        # Then each swaps a 1 MB frame of its own byte twice and checks the
        # peer's: frames that sessions write at once must not interleave
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "5000")
        make_fabric = fabrics()
        sizes = [(i + 1) * 16 for i in range(10)]
        results = {}
        lock = threading.Lock()

        def party(role):
            fabric = make_fabric(role)
            start_big = threading.Barrier(10, timeout=30)

            def run_one(sid):
                sess = Session(fabric, sid, role)
                sess.exchange("blob", bytes(sizes[sid]))
                with lock:
                    results[(role, sid)] = sess.measure()
                start_big.wait()
                got = [sess.exchange("big", bytes([2 * sid + role.value]) * (1 << 20)) for _ in range(2)]
                with lock:
                    results[(role, sid, "big")] = got == [bytes([2 * sid + role.peer.value]) * (1 << 20)] * 2

            threads = [threading.Thread(target=run_one, args=(sid,)) for sid in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            fabric.close()

        t0 = threading.Thread(target=party, args=(Role.P0,))
        t1 = threading.Thread(target=party, args=(Role.P1,))
        t0.start(), t1.start()
        t0.join(), t1.join()
        for sid in range(10):
            for role in (Role.P0, Role.P1):
                t = results[(role, sid)]
                assert t.bytes_sent == sizes[sid]
                assert t.rounds == 1
                assert results[(role, sid, "big")]


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
        mailbox = Mailbox()

        def p0(sess):
            sess._raw_send(Role.P1, "t", b"x")  # seq 0
            sess._send_seq[Role.P1] = 5  # corrupt the counter
            sess._raw_send(Role.P1, "t", b"y")  # seq 5

        def p1(sess):
            sess._raw_recv(Role.P0, "t")
            sess._raw_recv(Role.P0, "t")

        with pytest.raises(ProtocolError):
            run_pair_raw(inproc_fabrics(mailbox), {Role.P0: p0, Role.P1: p1})


class TestDisconnect:
    def test_recv_on_closed_channel(self):
        mailbox = Mailbox()
        sess = Session(InProcFabric(mailbox, Role.P0), 1, Role.P0)
        mailbox.close()
        for _ in range(2):  # and again: a closed mailbox never blocks a get
            with pytest.raises(PeerDisconnected):
                sess.recv_from_peer("t")


class TestMailbox:
    def test_dropping_drained_queues_loses_no_frame(self):
        # eight sessions, each with four writers and one reader on one
        # mailbox, and a thread switch every microsecond: a get drops its
        # queue whenever it drains it, yet every frame arrives, each writer's
        # in order, and no queue is left. A put that enqueued after releasing
        # the mailbox lock lost frames in 3 of 9 runs of this test
        mailbox, n, writers = Mailbox(), 2000, 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def write(sid, k):
                for i in range(k * n, (k + 1) * n):
                    mailbox.put(Role.P0, Role.P1, Message(sid, i, 0, b""))

            def read(sid):
                got = [mailbox.get(sid, Role.P0, Role.P1, timeout=10).seq for _ in range(writers * n)]
                return all([s for s in got if s // n == k] == list(range(k * n, (k + 1) * n)) for k in range(writers))

            with ThreadPoolExecutor(8 * (1 + writers)) as pool:
                reads = [pool.submit(read, sid) for sid in range(8)]
                writes = [pool.submit(write, sid, k) for sid in range(8) for k in range(writers)]
                assert all(f.result(timeout=60) for f in reads)
                assert all(f.result(timeout=60) is None for f in writes)
        finally:
            sys.setswitchinterval(interval)
        assert mailbox._queues == {}


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

    def test_idle_connection_outlives_the_timeout(self, monkeypatch):
        # only a receive times out: a connection left idle for longer than
        # the timeout still carries the next exchange
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "500")

        def fn(sess):
            time.sleep(1.0)
            return sess.exchange("t", bytes([sess.role.value]))

        assert run_pair_raw(tcp_fabrics(), {Role.P0: fn, Role.P1: fn}) == {Role.P0: b"\x01", Role.P1: b"\x00"}


    def test_simultaneous_large_exchange(self):
        # both parties send 64 MB at once, far more than the socket buffers
        # hold: each connection's reader drains while its sender writes
        n = 64 << 20

        def fn(sess):
            got = sess.exchange("big", bytes([sess.role.value]) * n)
            return got == bytes([sess.role.peer.value]) * n

        assert run_pair_raw(tcp_fabrics(), {Role.P0: fn, Role.P1: fn}) == {Role.P0: True, Role.P1: True}

    def test_send_to_a_stalled_peer_times_out(self, monkeypatch):
        # the listener accepts and never reads: a 64 MB send fills the socket
        # buffers and stalls, and raises SessionTimeout within the timeout
        # instead of blocking its caller; the connection is then closed
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "500")
        with socket.create_server(("127.0.0.1", 0)) as srv:
            fab = TcpFabric(Role.P1, peer_addr=srv.getsockname())
            stalled, _ = srv.accept()
            try:
                assert stalled.recv(1) == bytes([Role.P1.value])
                sess = Session(fab, 0, Role.P1)
                t0 = time.perf_counter()
                with pytest.raises(SessionTimeout, match="stalled"):
                    sess.send_to_peer("big", bytes(64 << 20))
                assert 0.4 < time.perf_counter() - t0 < 1.5
                with pytest.raises(PeerDisconnected):
                    sess.send_to_peer("next", b"x")
            finally:
                fab.close()
                stalled.close()


class TestTcpSetup:
    @pytest.mark.parametrize("listener, openings, error", [
        pytest.param(Role.DEALER, [b"\x07"], ProtocolError, id="bad-role"),  # names no party
        pytest.param(Role.DEALER, [b""], ProtocolError, id="closed"),  # connects and closes
        pytest.param(Role.DEALER, [b"\x00", b"\x00"], ProtocolError, id="two-p0"),  # both claim P0
        pytest.param(Role.DEALER, [None], SessionTimeout, id="silent"),  # connects, sends nothing
        pytest.param(Role.DEALER, [], SessionTimeout, id="nobody"),
        # P0 listens for P1 alone
        pytest.param(Role.P0, [b"\x00"], ProtocolError, id="p0-byte-0"),
        pytest.param(Role.P0, [b"\x02"], ProtocolError, id="p0-byte-2"),
        pytest.param(Role.P0, [b"\x07"], ProtocolError, id="p0-byte-7"),
        pytest.param(Role.P0, [b""], ProtocolError, id="p0-closed"),
        pytest.param(Role.P0, [None], SessionTimeout, id="p0-silent"),
        pytest.param(Role.P0, [], SessionTimeout, id="p0-nobody"),
    ])
    def test_dealer_setup_fails_typed(self, monkeypatch, listener, openings, error):
        # each client opens with its bytes (None: none, and stays open); the
        # listener raises a typed error within its timeout instead of
        # hanging, taking a stranger for a party, or serving a party twice
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "500")
        addr = ("127.0.0.1", free_port())
        done = threading.Event()

        def client(opening):
            deadline = time.perf_counter() + 2
            while True:
                try:
                    sock = socket.create_connection(addr, timeout=2)
                    break
                except OSError:
                    if time.perf_counter() > deadline:
                        return
                    time.sleep(0.01)
            with sock:
                if opening:
                    sock.sendall(opening)
                if opening != b"":
                    done.wait(5)

        threads = [threading.Thread(target=client, args=(o,)) for o in openings]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(error):
                TcpFabric(listener, listen_addr=addr)
            assert time.perf_counter() - t0 < 3
        finally:
            done.set()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    def test_failed_setup_closes_its_connections(self, monkeypatch):
        # P0 and P1 connect to each other and then find no dealer: each
        # raises, and closes the connection it already made, so no reader
        # thread of either fabric outlives it
        monkeypatch.setenv("MPCNN_TIMEOUT_MS", "1000")
        made = []

        class Recording(transport._TcpConn):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(transport, "_TcpConn", Recording)
        peer, dealer = ("127.0.0.1", free_port()), ("127.0.0.1", free_port())
        errors = {}

        def party(role, **addrs):
            try:
                TcpFabric(role, dealer_addr=dealer, **addrs)
            except Exception as e:
                errors[role] = e

        threads = [threading.Thread(target=party, args=(Role.P0,), kwargs={"listen_addr": peer}),
                   threading.Thread(target=party, args=(Role.P1,), kwargs={"peer_addr": peer})]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert set(errors) == {Role.P0, Role.P1}
        assert all(isinstance(e, TransportError) for e in errors.values())
        assert len(made) == 2  # P0's end and P1's end of their connection
        for conn in made:
            conn.reader.join(timeout=2)
            assert not conn.reader.is_alive()
            assert conn.sock.fileno() == -1
