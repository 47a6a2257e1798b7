"""A miner's local blocklace: the closed accepted set, a dangling-block
buffer, and the analysis predicates (paths, depth, equivocation, approval,
ratification, cordiality) that everything else is built on."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Block, Keyring, MinerId, block_id, make_block

REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_MALFORMED = "malformed"
REJECT_SELF_POINTER = "self-pointer"
REJECT_DUPLICATE_CREATOR = "duplicate-pointer-creator"
REJECT_NON_CORDIAL = "non-cordial"


class StoreError(Exception):
    pass


class UnknownBlock(StoreError, KeyError):
    pass


class WouldEquivocate(StoreError):
    pass


@dataclass(frozen=True)
class AcceptResult:
    """Outcome of one insert: status plus any cascade of newly accepted ids."""

    status: str  # "accepted" | "buffered" | "rejected"
    newly_accepted: tuple[bytes, ...] = ()
    reason: str | None = None


class BlockStore:
    """Closed blocklace plus a buffer of blocks with dangling pointers.

    Closures are kept as bitmasks over dense per-store indices, which makes
    acknowledgement, approval and set-difference queries cheap enough for
    thousand-run sweeps. The accepted set is append-only; every accepted
    block satisfied the signature and cordiality guards at acceptance time
    (its own blocks the cordiality guard alone).
    """

    def __init__(self, n: int, f: int, keyring: Keyring | None = None):
        if n < 3 * f + 1:
            raise ValueError(f"n={n} violates n >= 3f+1 for f={f}")
        self.n = n
        self.f = f
        # Any two quorums share f+1 creators, so a correct one, for every
        # n >= 3f+1; at n = 3f+1 this is 2f+1.
        self.quorum = (n + f) // 2 + 1
        self.keyring = keyring
        # Dense per-index columns for accepted blocks.
        self._ids: list[bytes] = []
        self._blocks: list[Block] = []
        self._creator: list[int] = []
        self._depth: list[int] = []
        self._pointed_from: list[float] = []  # shallowest depth pointing here
        self._closure: list[int] = []  # bitmask over indices, includes self
        self._index: dict[bytes, int] = {}
        # A creator not in _equivocators has one chain, and its last block in
        # acceptance order is its latest: a pointee is accepted before its
        # pointer, and a block acknowledging another is deeper than it.
        self._by_creator: dict[int, list[int]] = {}
        self._by_depth: dict[int, list[int]] = {}
        self._creator_ack: dict[int, int] = {}  # OR of closures of creator's blocks
        self._equivocators: set[int] = set()
        self.buffer: dict[bytes, Block] = {}
        self.violations: list[tuple[bytes, str]] = []  # rejected (id, reason)
        self._max_depth = 0

    # -- basic lookups -------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, bid: bytes) -> bool:
        return bid in self._index

    def get(self, bid: bytes) -> Block:
        return self._blocks[self._idx(bid)]

    def accepted_ids(self) -> list[bytes]:
        """All accepted ids in acceptance order."""
        return list(self._ids)

    def max_depth(self) -> int:
        return self._max_depth

    def _idx(self, bid: bytes) -> int:
        try:
            return self._index[bid]
        except KeyError:
            raise UnknownBlock(bid.hex()) from None

    def index_of(self, bid: bytes) -> int:
        """Dense per-store index of an accepted block (mask bit position)."""
        return self._idx(bid)

    def creator_ack_mask(self, q: MinerId) -> int:
        """Union of the closures of q's accepted blocks."""
        return self._creator_ack.get(q, 0)

    def depth_of(self, bid: bytes) -> int:
        return self._depth[self._idx(bid)]

    def creator_of(self, bid: bytes) -> int:
        return self._creator[self._idx(bid)]

    def blocks_at(self, d: int) -> list[bytes]:
        return [self._ids[i] for i in self._by_depth.get(d, ())]

    def blocks_prefix(self, d: int) -> set[bytes]:
        """Accepted blocks of depth <= d."""
        out = set()
        for depth, idxs in self._by_depth.items():
            if depth <= d:
                out.update(self._ids[i] for i in idxs)
        return out

    def creators_at(self, d: int) -> set[int]:
        return {self._creator[i] for i in self._by_depth.get(d, ())}

    def _latest(self, q: MinerId) -> int | None:
        """Index of q's (depth, id)-greatest block: the chain's last one
        unless q equivocated."""
        idxs = self._by_creator.get(q)
        if not idxs:
            return None
        return idxs[-1] if q not in self._equivocators else max(idxs, key=self._rank)

    def _rank(self, i: int) -> tuple[int, bytes]:
        return self._depth[i], self._ids[i]

    # -- insertion -----------------------------------------------------

    def insert(self, block: Block) -> AcceptResult:
        """Accept, buffer or reject a block; cascades the buffer on success.

        Re-inserting a known block is a no-op. A block with a dangling
        pointer is buffered; a badly signed, self-pointing or non-cordial
        block, or one whose creator is out of range, is rejected and
        recorded in ``violations``.
        """
        bid = block_id(block)
        if bid in self._index:
            return AcceptResult("accepted")
        if bid in self.buffer:
            return AcceptResult("buffered")
        reason = self._screen(bid, block)
        if not reason:
            pointees = list(map(self._index.get, block.pointers))
            if None in pointees:
                self.buffer[bid] = block
                return AcceptResult("buffered")
            reason = self._admit(bid, block, pointees)
        if reason:
            self.violations.append((bid, reason))
            return AcceptResult("rejected", reason=reason)
        return AcceptResult("accepted", (bid, *self._cascade()))

    def _screen(self, bid: bytes, block: Block) -> str | None:
        """The checks that depend on the store; a Block is well formed by
        construction."""
        if self.keyring is not None and not self.keyring.verify(block):
            return REJECT_BAD_SIGNATURE
        if not (0 <= block.creator < self.n):
            return REJECT_MALFORMED
        if bid in block.pointers:
            return REJECT_SELF_POINTER
        return None

    def _admit(self, bid: bytes, block: Block, pointees: list[int]) -> str | None:
        """Accept a screened or own block whose pointees, given as store
        indices, are all accepted, or return why it is rejected.

        Depth falls by at least one along every pointer, so the closure's
        blocks one round below the new block are exactly its direct pointees
        there, whose creators are distinct once the duplicate check passes:
        cordiality counts them.
        """
        creators, depths = self._creator, self._depth
        if len({creators[i] for i in pointees}) < len(pointees):
            return REJECT_DUPLICATE_CREATOR
        below = [depths[i] for i in pointees]
        depth = 1 + max(below, default=0)
        if pointees and below.count(depth - 1) < self.quorum:
            return REJECT_NON_CORDIAL
        idx = len(self._ids)
        mask = 1 << idx
        closure, pointed_from = self._closure, self._pointed_from
        for i in pointees:
            mask |= closure[i]
            if depth < pointed_from[i]:
                pointed_from[i] = depth
        self._ids.append(bid)
        self._blocks.append(block)
        creators.append(block.creator)
        depths.append(depth)
        pointed_from.append(float("inf"))
        closure.append(mask)
        self._index[bid] = idx
        self._by_depth.setdefault(depth, []).append(idx)
        if depth > self._max_depth:
            self._max_depth = depth
        siblings = self._by_creator.setdefault(block.creator, [])
        # The chain's last block cannot acknowledge the newcomer, and the
        # newcomer acknowledges the whole chain iff it acknowledges that one.
        if (siblings and block.creator not in self._equivocators
                and not (mask >> siblings[-1]) & 1):
            self._equivocators.add(block.creator)
        siblings.append(idx)
        self._creator_ack[block.creator] = self._creator_ack.get(block.creator, 0) | mask
        return None

    def _cascade(self) -> list[bytes]:
        if not self.buffer:
            return []
        accepted: list[bytes] = []
        progress = True
        while progress:
            progress = False
            for bid, blk in list(self.buffer.items()):
                pointees = list(map(self._index.get, blk.pointers))
                if None in pointees:
                    continue
                del self.buffer[bid]
                reason = self._admit(bid, blk, pointees)
                if reason:
                    self.violations.append((bid, reason))
                else:
                    accepted.append(bid)
                progress = True
        return accepted

    # -- relations -----------------------------------------------------

    def acknowledges(self, a: bytes, b: bytes) -> bool:
        """Strict: a non-empty pointer path leads from a to b."""
        ia, ib = self._idx(a), self._idx(b)
        return ia != ib and bool((self._closure[ia] >> ib) & 1)

    def closure_mask(self, bid: bytes) -> int:
        return self._closure[self._idx(bid)]

    def blocks_in_mask(self, mask: int) -> list[Block]:
        """The blocks of mask, parents-first: by depth, then id."""
        depths, ids = self._depth, self._ids
        order = sorted(bits(mask), key=lambda i: (depths[i], ids[i]))
        return [self._blocks[i] for i in order]

    def tips(self, r: int) -> dict[int, bytes]:
        """Creator -> its (depth, id)-greatest block of depth <= r that no
        block of depth <= r points at. On a chain only the deepest block of
        depth <= r can qualify: a later one reaches it by a path of depth
        <= r. That block is found by walking the chain back from its end;
        an equivocator's blocks are all scanned."""
        depths, pointed_from, ids = self._depth, self._pointed_from, self._ids
        out: dict[int, bytes] = {}
        for c, idxs in self._by_creator.items():
            if c in self._equivocators:
                tips = [i for i in idxs if depths[i] <= r and pointed_from[i] > r]
                if tips:
                    out[c] = ids[max(tips, key=self._rank)]
                continue
            k = len(idxs) - 1
            while k >= 0 and depths[idxs[k]] > r:
                k -= 1
            if k >= 0 and pointed_from[idxs[k]] > r:
                out[c] = ids[idxs[k]]
        return out

    # -- fault analysis ------------------------------------------------

    def is_equivocation(self, b1: bytes, b2: bytes) -> bool:
        i1, i2 = self._idx(b1), self._idx(b2)
        if i1 == i2 or self._creator[i1] != self._creator[i2]:
            return False
        return not ((self._closure[i1] >> i2) & 1 or (self._closure[i2] >> i1) & 1)

    def _partner_mask(self, i: int) -> int:
        """Bitmask of accepted blocks forming an equivocation with block i."""
        c = self._creator[i]
        if c not in self._equivocators:
            return 0
        mask = 0
        mine = self._closure[i]
        for s in self._by_creator[c]:
            if s == i:
                continue
            if not ((mine >> s) & 1 or (self._closure[s] >> i) & 1):
                mask |= 1 << s
        return mask

    def approves(self, b1: bytes, b: bytes) -> bool:
        """b acknowledges b1 and none of b1's equivocation partners."""
        return self._approves(self._idx(b1), self._idx(b))

    def _approves(self, i1: int, ib: int) -> bool:
        m = self._closure[ib]
        return bool((m >> i1) & 1) and not (m & self._partner_mask(i1))

    def ratifies(self, b1: bytes, b2: bytes, alpha: int) -> bool:
        """b2 acknowledges blocks at depth(b1)+alpha approving b1 by a quorum
        of distinct creators."""
        return self._ratifies(self._idx(b1), self._idx(b2), alpha)

    def _ratifies(self, i1: int, i2: int, alpha: int) -> bool:
        target = self._depth[i1] + alpha
        m2 = self._closure[i2]
        creators: set[int] = set()
        for i in self._by_depth.get(target, ()):
            if not (m2 >> i) & 1:
                continue
            if self._approves(i1, i):
                creators.add(self._creator[i])
                if len(creators) >= self.quorum:
                    return True
        return False

    def is_faulty(self, q: MinerId) -> bool:
        """q equivocated. Non-cordial blocks never enter the store, so
        equivocation is the only fault the accepted set can show."""
        return q in self._equivocators

    def cordial_round(self, p: MinerId) -> int | None:
        """Deepest round with blocks by a quorum of creators that p has not
        built past; 0 authorizes p's initial block; None if p must wait.
        Creators are counted as admission counts them, equivocators
        included."""
        latest = self._latest(p)
        own_max = 0 if latest is None else self._depth[latest]
        for d in range(self._max_depth, max(own_max, 1) - 1, -1):
            if len(self.creators_at(d)) >= self.quorum:
                return d
        return 0 if own_max == 0 else None

    # -- block creation ------------------------------------------------

    def create_block(self, p: MinerId, payload: bytes, r: int) -> Block:
        """Create, sign and accept a new p-block over the depth-<=r prefix.

        Points at the prefix tips (one per creator) and chains to p's latest
        block; raises WouldEquivocate rather than fork p's chain.
        """
        tips = self.tips(r)
        chosen = [self._index[t] for t in tips.values()]
        latest = self._latest(p)
        if latest is not None:
            if self._depth[latest] > max((self._depth[i] for i in chosen), default=0):
                raise WouldEquivocate(
                    f"miner {p} already has a block deeper than the prefix")
            if not any((self._closure[i] >> latest) & 1 for i in chosen):
                if p in tips:
                    raise WouldEquivocate(
                        f"prefix tip by miner {p} is not its latest block")
                chosen.append(latest)
        blk = make_block(p, payload, [self._ids[i] for i in chosen])
        if self.keyring is not None:
            blk = self.keyring.sign(blk)
        # Admitted without a screen: the store just built and signed it, its
        # pointees are accepted, and no buffered block can name a new id.
        bid = block_id(blk)
        reason = self._admit(bid, blk, chosen)
        if reason:
            self.violations.append((bid, reason))
            raise StoreError(f"own block not accepted: {reason}")
        return blk


def bits(mask: int):
    """The indices set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
