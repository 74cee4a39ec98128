"""Session establishment and local two-party execution helpers.

A protocol context is established by fetching the party's dealer seed and
exchanging PRZS seeds; both happen before the transcript starts counting, so
a fresh session measures zero. The in-process runner drives both
parties (and a dealer) on threads of one process, which is also how the
benchmark harness hosts its agents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .arith import ProtocolCtx
from .dealer import DealerService, TripleSource
from .ring import FixedPointConfig
from .sharing import przs_setup
from .transport import Fabric, InProcFabric, InProcHub, Role, Session


def establish(session: Session, cfg: FixedPointConfig | None = None) -> ProtocolCtx:
    """Dealer seed fetch plus PRZS seed handshake; counters start afterwards.
    The seed request goes out first, so the dealer answers it while the
    parties swap PRZS seeds."""
    triples = TripleSource(session)
    seeds = przs_setup(session)
    triples.seed()
    session.transcript.reset()
    return ProtocolCtx(
        session=session,
        triples=triples,
        przs=seeds.stream(session.role),
        cfg=cfg or FixedPointConfig(),
    )


@dataclass
class PairOutcome:
    values: dict
    errors: dict


def run_pair_raw(make_fabric, fn_by_role, session_id=1):
    """Run one function per role on its own thread; propagate the first error."""
    outcome = PairOutcome({}, {})

    def runner(role):
        try:
            fabric = make_fabric(role)
            try:
                sess = Session(fabric, session_id, role)
                outcome.values[role] = fn_by_role[role](sess)
            finally:
                if not isinstance(fabric, InProcFabric):
                    fabric.close()
        except Exception as e:
            outcome.errors[role] = e

    threads = [threading.Thread(target=runner, args=(r,)) for r in fn_by_role]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if outcome.errors:
        raise next(iter(outcome.errors.values()))
    return outcome.values


class LocalRuntime:
    """One in-process hub with a dealer service, hosting any number of
    concurrent two-party sessions."""

    def __init__(self, master_seed: bytes | None = None):
        self.hub = InProcHub()
        self.dealer = DealerService(InProcFabric(self.hub, Role.DEALER), master_seed).start()
        self._sid_lock = threading.Lock()
        self._next_sid = 1

    def new_session_id(self) -> int:
        with self._sid_lock:
            sid = self._next_sid
            self._next_sid += 1
            return sid

    def fabric(self, role: Role) -> Fabric:
        return InProcFabric(self.hub, role)

    def run_session(self, fn0, fn1, cfg: FixedPointConfig | None = None, session_id=None):
        """fn(ctx) for each party; returns {Role.P0: ..., Role.P1: ...}. The
        session's hub queues and dealer entries are freed when both parties
        are done."""
        sid = session_id if session_id is not None else self.new_session_id()

        def wrap(fn):
            def run(sess: Session):
                return fn(establish(sess, cfg))

            return run

        try:
            return run_pair_raw(self.fabric, {Role.P0: wrap(fn0), Role.P1: wrap(fn1)}, sid)
        finally:
            self.hub.release(sid)
            self.dealer.release(sid)

    def close(self):
        """Close the hub, which wakes the dealer's service threads at once,
        then join them."""
        self.hub.close()
        self.dealer.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
