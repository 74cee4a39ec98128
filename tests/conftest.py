import collections
import contextlib
import dataclasses
import socket
import threading

from mpcnn.dealer import DealerService
from mpcnn.runtime import establish, run_pair_raw
from mpcnn.transport import InProcFabric, Mailbox, Message, Role, TcpFabric


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def inproc_fabrics(mailbox=None):
    """`make_fabric` for `runtime.run_pair_raw`: both parties on one
    in-process mailbox."""
    mailbox = mailbox or Mailbox()
    return lambda role: InProcFabric(mailbox, role)


def tcp_fabrics():
    """`make_fabric` for `runtime.run_pair_raw`: P0 listens on a free
    loopback port and P1 connects to it."""
    addr = ("127.0.0.1", free_port())
    return lambda role: (TcpFabric(Role.P0, listen_addr=addr) if role is Role.P0
                         else TcpFabric(Role.P1, peer_addr=addr))


class Faults:
    """Corrupts one frame of those a role sends: `arm(to, k, fault)` makes
    the k-th frame to `to` (from 0) lose its last byte ('truncate'), go out
    twice ('duplicate'), never go out ('drop'), or go out right after the
    next frame to `to` ('reorder'). Mixed in ahead of a fabric class."""

    def arm(self, to: Role, k: int, fault: str):
        self.to, self.k, self.fault = to, k, fault
        self._sent, self._lock, self._held = collections.Counter(), threading.Lock(), None
        return self

    def send(self, to: Role, msg: Message):
        with self._lock:  # the dealer sends on one thread per party
            k = self._sent[to]
            self._sent[to] += 1
        frames = [msg]
        if (to, k) == (self.to, self.k):
            frames = {"truncate": [dataclasses.replace(msg, payload=msg.payload[:-1])], "duplicate": [msg, msg],
                      "drop": [], "reorder": []}[self.fault]
            self._held = msg
        elif (to, k) == (self.to, self.k + 1) and self.fault == "reorder":
            frames = [msg, self._held]
        for frame in frames:
            super().send(to, frame)


class FaultyFabric(Faults, InProcFabric):
    pass


class FaultyTcpFabric(Faults, TcpFabric):
    pass


def fabric_for(role, fault, base, *args, **kwargs):
    """`base(*args, **kwargs)`, in its faulty form and armed when `fault`, a
    (sender, to, k, fault) tuple, names `role` as its sender."""
    if fault is None or fault[0] is not role:
        return base(*args, **kwargs)
    return {InProcFabric: FaultyFabric, TcpFabric: FaultyTcpFabric}[base](*args, **kwargs).arm(*fault[1:])


@contextlib.contextmanager
def inproc_with_dealer(fault=None):
    """`make_fabric` for `runtime.run_pair_raw`: both parties and a
    DealerService on one in-process mailbox, `fault` armed at its sender."""
    mailbox = Mailbox()
    svc = DealerService(fabric_for(Role.DEALER, fault, InProcFabric, mailbox, Role.DEALER)).start()
    try:
        yield lambda role: fabric_for(role, fault, InProcFabric, mailbox, role)
    finally:
        mailbox.close()  # wakes the service threads at once
        svc.stop()


@contextlib.contextmanager
def tcp_with_dealer(fault=None):
    """`make_fabric` for `runtime.run_pair_raw`: P0, P1 and a DealerService
    each on its own TcpFabric over loopback, `fault` armed at its sender."""
    host, peer, dealer_port = "127.0.0.1", free_port(), free_port()
    dealer = {}

    def serve():  # the dealer's fabric blocks until both parties connect
        dealer["fab"] = fabric_for(Role.DEALER, fault, TcpFabric, Role.DEALER, listen_addr=(host, dealer_port))
        dealer["svc"] = DealerService(dealer["fab"]).start()

    def make_fabric(role):
        if role is Role.P0:
            return fabric_for(role, fault, TcpFabric, Role.P0, listen_addr=(host, peer),
                              dealer_addr=(host, dealer_port))
        return fabric_for(role, fault, TcpFabric, Role.P1, peer_addr=(host, peer), dealer_addr=(host, dealer_port))

    server = threading.Thread(target=serve)
    server.start()
    try:
        yield make_fabric
    finally:
        server.join(timeout=30)
        if "svc" in dealer:
            dealer["fab"].close()  # wakes the service threads at once
            dealer["svc"].stop()


def run_tcp_with_dealer(fn, cfg=None):
    """fn(ctx) on both parties, with P0, P1 and a DealerService each on its
    own TcpFabric over loopback; returns {role: result}."""

    def run(sess):
        return fn(establish(sess, cfg))

    with tcp_with_dealer() as make_fabric:
        return run_pair_raw(make_fabric, {Role.P0: run, Role.P1: run})
