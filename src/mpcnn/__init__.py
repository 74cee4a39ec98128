"""mpcnn: two-party secure CNN inference over additive secret shares.

A data holder (P0) and a model holder (P1) evaluate fixed-point neural
networks over shares in Z_2^64, assisted by a trusted dealer. The dealer
gives each party one seed per session, from which it expands its halves of
every correlation: Beaver and boolean triples, the held conv and matmul
correlations of the model holder's linear layers, mask pairs, and the
select correlations that multiply a XOR-shared comparison bit into a word
in one round. Each kind is defined once, in the dealer's `HALVES` table.
Only P0 asks for more: the corrections, in one dealer round trip per batch
(a comparison or an a2b conversion fetches its mask pair and all of its AND
triples at once). A comparison keeps its openings in flight, so they share
rounds with the session's later openings until its bit is read. Every
protocol run produces an exact transcript of payload bytes and
communication rounds.
"""

__version__ = "0.1.0"

from .ring import FixedPointConfig, RingTensor, encode, decode  # noqa: F401
