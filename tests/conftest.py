import socket
import threading

from mpcnn.dealer import DealerService
from mpcnn.runtime import establish, run_pair_raw
from mpcnn.transport import InProcFabric, Mailbox, Role, TcpFabric


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


def run_tcp_with_dealer(fn, cfg=None):
    """fn(ctx) on both parties, with P0, P1 and a DealerService each on its
    own TcpFabric over loopback; returns {role: result}."""
    host, peer, dealer_port = "127.0.0.1", free_port(), free_port()
    dealer = {}

    def serve():  # the dealer's fabric blocks until both parties connect
        dealer["fab"] = TcpFabric(Role.DEALER, listen_addr=(host, dealer_port))
        dealer["svc"] = DealerService(dealer["fab"]).start()

    def make_fabric(role):
        if role is Role.P0:
            return TcpFabric(Role.P0, listen_addr=(host, peer), dealer_addr=(host, dealer_port))
        return TcpFabric(Role.P1, peer_addr=(host, peer), dealer_addr=(host, dealer_port))

    def run(sess):
        return fn(establish(sess, cfg))

    server = threading.Thread(target=serve)
    server.start()
    try:
        return run_pair_raw(make_fabric, {Role.P0: run, Role.P1: run})
    finally:
        server.join(timeout=30)
        if "svc" in dealer:
            dealer["svc"].stop()
            dealer["fab"].close()
