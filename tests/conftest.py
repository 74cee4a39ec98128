import socket

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
