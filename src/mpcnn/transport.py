"""Party-to-party and dealer channels with exact byte and round accounting.

A round is one parallel communication phase: everything that may legally fly
concurrently counts once, no matter how many bytes it carries. Payload bytes
and 24-byte frame headers are tracked separately. The in-process and TCP
backends sit under the same Session API and produce byte-identical
transcripts for the same protocol run.
"""

from __future__ import annotations

import enum
import json
import os
import queue
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

HEADER = struct.Struct("<QQII")  # session_id, seq, tag hash, payload length
HEADER_BYTES = HEADER.size  # 24

DEFAULT_TIMEOUT_MS = 30_000


def timeout_seconds() -> float:
    return int(os.environ.get("MPCNN_TIMEOUT_MS", DEFAULT_TIMEOUT_MS)) / 1000.0


class Role(enum.Enum):
    P0 = 0  # data holder
    P1 = 1  # model holder
    DEALER = 2

    @property
    def peer(self) -> "Role":
        if self is Role.DEALER:
            raise ValueError("dealer has no single peer")
        return Role.P1 if self is Role.P0 else Role.P0


class TransportError(Exception):
    pass


class PeerDisconnected(TransportError):
    pass


class SessionTimeout(TransportError):
    pass


class ProtocolError(TransportError):
    """Sequence, tag, or length violation."""


@dataclass
class Message:
    session_id: int
    seq: int
    tag: str
    payload: bytes


def tag_hash(tag: str) -> int:
    return zlib.crc32(tag.encode()) & 0xFFFFFFFF


@dataclass
class TagStats:
    bytes_sent: int = 0
    bytes_recv: int = 0
    phases: int = 0


@dataclass
class Transcript:
    """Per-session ledger of payload bytes and communication phases."""

    bytes_sent: int = 0
    bytes_recv: int = 0
    header_bytes_sent: int = 0
    header_bytes_recv: int = 0
    rounds: int = 0
    wall_start: float = field(default_factory=time.perf_counter)
    wall_time: float = 0.0
    tags: dict = field(default_factory=dict)

    def _tag(self, tag: str) -> TagStats:
        st = self.tags.get(tag)
        if st is None:
            st = self.tags[tag] = TagStats()
        return st

    def note_send(self, tag: str, n: int):
        self.bytes_sent += n
        self.header_bytes_sent += HEADER_BYTES
        self._tag(tag).bytes_sent += n

    def note_recv(self, tag: str, n: int):
        self.bytes_recv += n
        self.header_bytes_recv += HEADER_BYTES
        self._tag(tag).bytes_recv += n

    def note_round(self, tag: str):
        self.rounds += 1
        self._tag(tag).phases += 1

    def snapshot(self) -> "Transcript":
        snap = Transcript(
            bytes_sent=self.bytes_sent,
            bytes_recv=self.bytes_recv,
            header_bytes_sent=self.header_bytes_sent,
            header_bytes_recv=self.header_bytes_recv,
            rounds=self.rounds,
            wall_start=self.wall_start,
            wall_time=time.perf_counter() - self.wall_start,
            tags={k: TagStats(v.bytes_sent, v.bytes_recv, v.phases) for k, v in self.tags.items()},
        )
        return snap

    def reset(self):
        self.bytes_sent = self.bytes_recv = 0
        self.header_bytes_sent = self.header_bytes_recv = 0
        self.rounds = 0
        self.tags = {}
        self.wall_start = time.perf_counter()

    def jsonl_line(self, session_id: int) -> str:
        return json.dumps(
            {
                "session": session_id,
                "bytes": self.bytes_sent,
                "rounds": self.rounds,
                "wall_ms": round(self.wall_time * 1000.0, 3),
            }
        )

    def counters(self) -> tuple:
        """Deterministic fields only (no wall time)."""
        return (
            self.bytes_sent,
            self.bytes_recv,
            self.rounds,
            tuple(sorted((k, v.bytes_sent, v.bytes_recv, v.phases) for k, v in self.tags.items())),
        )


def export_jsonl(snapshots: dict, path: str):
    """snapshots: session_id -> Transcript."""
    with open(path, "w") as f:
        for sid, t in sorted(snapshots.items()):
            f.write(t.jsonl_line(sid) + "\n")


# ---------------------------------------------------------------------------
# fabrics: message routing between roles, keyed by session


class Fabric:
    """Routes frames between roles. One fabric instance per role."""

    role: Role

    def send(self, to: Role, msg: Message):
        raise NotImplementedError

    def recv(self, frm: Role, session_id: int, timeout: float | None = None) -> Message:
        raise NotImplementedError

    def close(self):
        pass


class InProcHub:
    """Shared mailbox for in-process parties. Queues are per (session, src, dst)."""

    def __init__(self):
        self._queues: dict = {}
        self._lock = threading.Lock()
        self._closed = False

    def queue_for(self, session_id: int, src: Role, dst: Role) -> queue.Queue:
        key = (session_id, src, dst)
        with self._lock:
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
                if self._closed:
                    q.put(None)
            return q

    def release(self, session_id: int):
        """Drop a finished session's queues."""
        with self._lock:
            for key in [k for k in self._queues if k[0] == session_id]:
                del self._queues[key]

    def close(self):
        with self._lock:
            self._closed = True
            for q in self._queues.values():
                q.put(None)

    @property
    def closed(self):
        return self._closed


class InProcFabric(Fabric):
    SERVICE = -1  # dealer reads all sessions from one inbox per source party

    def __init__(self, hub: InProcHub, role: Role):
        self.hub = hub
        self.role = role

    def send(self, to: Role, msg: Message):
        if self.hub.closed:
            raise PeerDisconnected("hub closed")
        sid = self.SERVICE if to is Role.DEALER else msg.session_id
        self.hub.queue_for(sid, self.role, to).put(msg)

    def recv(self, frm: Role, session_id: int, timeout: float | None = None) -> Message:
        q = self.hub.queue_for(session_id, frm, self.role)
        try:
            msg = q.get(timeout=timeout if timeout is not None else timeout_seconds())
        except queue.Empty:
            raise SessionTimeout(f"recv from {frm} timed out (session {session_id})")
        if msg is None:
            raise PeerDisconnected(f"channel from {frm} closed")
        return msg

    def recv_any(self, frm: Role, timeout: float | None = None) -> Message:
        """Dealer-side service inbox: frames from `frm` across all sessions."""
        return self.recv(frm, self.SERVICE, timeout)


class _TcpConn:
    """One long-lived framed connection. A writer thread drains a queue so that
    simultaneous large sends from both ends cannot deadlock."""

    SERVICE = -1

    def __init__(self, sock: socket.socket, service: bool = False):
        self.sock = sock
        self.sock.settimeout(timeout_seconds())
        # frames are written whole; Nagle would hold each one's tail segment
        # until the peer ACKs the previous one
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.service = service  # dealer end: one inbox across sessions
        self._outbox: queue.Queue = queue.Queue()
        self._inboxes: dict = {}
        self._in_lock = threading.Lock()
        self._alive = True
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._writer.start()
        self._reader.start()

    def _inbox(self, session_id: int) -> queue.Queue:
        with self._in_lock:
            q = self._inboxes.get(session_id)
            if q is None:
                q = self._inboxes[session_id] = queue.Queue()
            return q

    def _write_loop(self):
        while True:
            item = self._outbox.get()
            if item is None:
                return
            try:
                self.sock.sendall(item)
            except OSError:
                self._alive = False
                return

    def _read_loop(self):
        try:
            while True:
                header = self._read_exact(HEADER_BYTES)
                sid, seq, th, length = HEADER.unpack(header)
                payload = self._read_exact(length)
                key = self.SERVICE if self.service else sid
                self._inbox(key).put((sid, seq, th, payload))
        except (OSError, PeerDisconnected):
            self._alive = False
            with self._in_lock:
                for q in self._inboxes.values():
                    q.put(None)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise PeerDisconnected("socket closed")
            buf.extend(chunk)
        return bytes(buf)

    def send(self, msg: Message):
        if not self._alive:
            raise PeerDisconnected("connection lost")
        frame = HEADER.pack(msg.session_id, msg.seq, tag_hash(msg.tag), len(msg.payload))
        self._outbox.put(frame + msg.payload)

    def recv(self, key: int, timeout: float | None = None):
        try:
            item = self._inbox(key).get(
                timeout=timeout if timeout is not None else timeout_seconds()
            )
        except queue.Empty:
            raise SessionTimeout(f"tcp recv timed out (session {key})")
        if item is None:
            raise PeerDisconnected("connection lost")
        return item

    def close(self):
        # drain pending sends before tearing the socket down
        self._outbox.put(None)
        self._writer.join(timeout=timeout_seconds())
        self._alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class TcpFabric(Fabric):
    """TCP backend. P0 listens for P1; the dealer listens for both parties.

    Connection map: parties hold one connection to each other and one to the
    dealer; the dealer holds one connection per party.
    """

    def __init__(self, role: Role, listen_addr=None, peer_addr=None, dealer_addr=None,
                 expect_parties=2):
        self.role = role
        self._conns: dict = {}
        if role is Role.DEALER:
            self._serve_parties(listen_addr, expect_parties)
        elif role is Role.P0:
            if listen_addr:
                self._accept_peer(listen_addr)
            if dealer_addr:
                self._connect(Role.DEALER, dealer_addr)
        else:
            if peer_addr:
                self._connect(Role.P0, peer_addr)
            if dealer_addr:
                self._connect(Role.DEALER, dealer_addr)

    @staticmethod
    def _listener(addr):
        host, port = addr
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(4)
        srv.settimeout(timeout_seconds())
        return srv

    def _accept_peer(self, addr):
        srv = self._listener(addr)
        self.bound_addr = srv.getsockname()
        sock, _ = srv.accept()
        sock.sendall(b"\x00")  # role handshake not needed for the pair
        self._conns[Role.P1] = _TcpConn(sock)
        srv.close()

    def _serve_parties(self, addr, expect_parties):
        srv = self._listener(addr)
        self.bound_addr = srv.getsockname()
        for _ in range(expect_parties):
            sock, _ = srv.accept()
            role_byte = sock.recv(1)
            role = Role(role_byte[0])
            self._conns[role] = _TcpConn(sock, service=True)
        srv.close()

    def _connect(self, to: Role, addr):
        deadline = time.time() + timeout_seconds()
        last = None
        while time.time() < deadline:
            try:
                sock = socket.create_connection(addr, timeout=timeout_seconds())
                break
            except OSError as e:  # peer may not be listening yet
                last = e
                time.sleep(0.05)
        else:
            raise TransportError(f"cannot connect to {to} at {addr}: {last}")
        if to is Role.DEALER:
            sock.sendall(bytes([self.role.value]))
        else:
            sock.recv(1)
        self._conns[to] = _TcpConn(sock)

    def send(self, to: Role, msg: Message):
        conn = self._conns.get(to)
        if conn is None:
            raise TransportError(f"no connection to {to}")
        conn.send(msg)

    def recv(self, frm: Role, session_id: int, timeout: float | None = None) -> Message:
        conn = self._conns.get(frm)
        if conn is None:
            raise TransportError(f"no connection to {frm}")
        sid, seq, th, payload = conn.recv(session_id, timeout)
        return Message(sid, seq, _TagPlaceholder(th), payload)  # tag checked by hash

    def recv_any(self, frm: Role, timeout: float | None = None) -> Message:
        conn = self._conns.get(frm)
        if conn is None:
            raise TransportError(f"no connection to {frm}")
        sid, seq, th, payload = conn.recv(_TcpConn.SERVICE, timeout)
        return Message(sid, seq, _TagPlaceholder(th), payload)

    def close(self):
        for conn in self._conns.values():
            conn.close()


class _TagPlaceholder(str):
    """Carries only a tag hash (TCP frames do not ship the tag string)."""

    def __new__(cls, th: int):
        obj = super().__new__(cls, f"#{th:08x}")
        obj.hash = th
        return obj


def _msg_tag_hash(msg: Message) -> int:
    t = msg.tag
    return t.hash if isinstance(t, _TagPlaceholder) else tag_hash(t)


# ---------------------------------------------------------------------------
# session: seq tracking, transcripts, exchange primitive


class Session:
    """One party's endpoint of one protocol session.

    Byte counters cover party-to-party payload only; dealer traffic goes to a
    separate transcript so offline cost is reported apart from online cost.
    """

    def __init__(self, fabric: Fabric, session_id: int, role: Role):
        if role is Role.DEALER:
            raise ValueError("sessions belong to P0/P1; the dealer serves them")
        self.fabric = fabric
        self.session_id = session_id
        self.role = role
        self.transcript = Transcript()
        self.dealer_transcript = Transcript()
        self._send_seq: dict = {}
        self._recv_seq: dict = {}

    # -- framing helpers --

    def _next_seq(self, to: Role) -> int:
        s = self._send_seq.get(to, 0)
        self._send_seq[to] = s + 1
        return s

    def _check_seq(self, frm: Role, msg: Message, tag: str):
        expect = self._recv_seq.get(frm, 0)
        if msg.seq != expect:
            raise ProtocolError(f"seq {msg.seq} != expected {expect} from {frm}")
        self._recv_seq[frm] = expect + 1
        if _msg_tag_hash(msg) != tag_hash(tag):
            raise ProtocolError(f"tag mismatch: expected {tag!r}")

    def _raw_send(self, to: Role, tag: str, payload: bytes):
        self.fabric.send(to, Message(self.session_id, self._next_seq(to), tag, payload))

    def _raw_recv(self, frm: Role, tag: str) -> bytes:
        msg = self.fabric.recv(frm, self.session_id)
        self._check_seq(frm, msg, tag)
        return msg.payload

    # -- party-to-party, transcript-counted --

    def exchange(self, tag: str, payload: bytes, peer_len: int | None = None) -> bytes:
        """One-round swap: both parties send at once, then each receives the
        other's payload. The peer's payload must be `peer_len` bytes long,
        by default as long as this party's own (a symmetric opening); the two
        sides of an asymmetric swap each pass the length they expect from the
        other. A swap of two empty payloads produces no traffic and no round."""
        expect = len(payload) if peer_len is None else peer_len
        if len(payload) == 0 and expect == 0:
            return b""
        peer = self.role.peer
        self._raw_send(peer, tag, payload)
        got = self._raw_recv(peer, tag)
        if len(got) != expect:
            raise ProtocolError(f"exchange length mismatch: expected {expect}, got {len(got)}")
        self.transcript.note_send(tag, len(payload))
        self.transcript.note_recv(tag, len(got))
        self.transcript.note_round(tag)
        return got

    def send_to_peer(self, tag: str, payload: bytes):
        """Directed phase, sender side. Counts one round for this party."""
        if len(payload) == 0:
            return
        self._raw_send(self.role.peer, tag, payload)
        self.transcript.note_send(tag, len(payload))
        self.transcript.note_round(tag)

    def recv_from_peer(self, tag: str) -> bytes:
        """Directed phase, receiver side. Counts one round for this party."""
        payload = self._raw_recv(self.role.peer, tag)
        self.transcript.note_recv(tag, len(payload))
        self.transcript.note_round(tag)
        return payload

    # -- dealer traffic, counted separately --

    def send_to_dealer(self, tag: str, payload: bytes):
        self._raw_send(Role.DEALER, tag, payload)
        self.dealer_transcript.note_send(tag, len(payload))
        self.dealer_transcript.note_round(tag)

    def recv_from_dealer(self, tag: str) -> bytes:
        payload = self._raw_recv(Role.DEALER, tag)
        self.dealer_transcript.note_recv(tag, len(payload))
        return payload

    def measure(self) -> Transcript:
        return self.transcript.snapshot()
