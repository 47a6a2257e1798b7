"""Leader assignment: round-robin for eventual synchrony and a simulated
shared random coin for asynchrony."""

from __future__ import annotations

import hashlib
from typing import Callable

from .blocks import MinerId


class CoinError(Exception):
    pass


class LeaderSchedule:
    """Leader of each leader round (a positive multiple of stride); None for
    every other round.

    Leaders rotate round-robin over the n miners unless a lookup is given;
    then the leader of round d is lookup(d), which may be None while that
    round's leader is unknown (a coin not yet revealed)."""

    def __init__(self, n: int, stride: int,
                 lookup: Callable[[int], MinerId | None] | None = None):
        self.n = n
        self.stride = stride
        self.lookup = lookup

    def leader_at(self, d: int) -> MinerId | None:
        if d <= 0 or d % self.stride != 0:
            return None
        if self.lookup is None:
            return (d // self.stride) % self.n
        return self.lookup(d)


class CoinOracle:
    """Shared random coin: one fixed value per leader round, revealed only
    after f+1 distinct miners have invoked it."""

    def __init__(self, seed: int, n: int, f: int, stride: int):
        self.seed = seed
        self.n = n
        self.f = f
        self.stride = stride
        self.callers: dict[int, set[int]] = {}
        self.revealed: dict[int, MinerId] = {}
        self.reveal_log: list[tuple[int, MinerId]] = []  # in reveal order
        self.peek_log: list[tuple[int, bool]] = []  # adversary guard queries

    def value(self, r: int) -> MinerId:
        h = hashlib.sha256(b"blocklace/coin/" + self.seed.to_bytes(8, "big", signed=False)
                           + r.to_bytes(8, "big")).digest()
        return int.from_bytes(h[:8], "big") % self.n

    def request(self, p: MinerId, r: int) -> MinerId | None:
        """Register p's invocation for round r; returns the value once at
        least f+1 distinct miners asked, else None (pending)."""
        if r <= 0 or r % self.stride != 0:
            raise CoinError(f"round {r} is not a leader round")
        group = self.callers.setdefault(r, set())
        group.add(p)
        if r in self.revealed:
            return self.revealed[r]
        if len(group) >= self.f + 1:
            v = self.value(r)
            self.revealed[r] = v
            self.reveal_log.append((r, v))
            return v
        return None

    def is_revealed(self, r: int) -> bool:
        return r in self.revealed

    def revealed_value(self, r: int) -> MinerId | None:
        return self.revealed.get(r)

    def adversary_peek_guard(self, r: int) -> bool:
        """The only coin surface the adversary may touch; audited."""
        ok = r in self.revealed
        self.peek_log.append((r, ok))
        return ok
