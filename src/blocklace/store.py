"""A miner's local blocklace: the closed accepted set, a dangling-block
buffer, and the analysis predicates (paths, depth, equivocation, approval,
ratification, cordiality) that everything else is built on."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    Block,
    Keyring,
    MinerId,
    block_id,
    make_block,
    structural_error,
)

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
    block satisfied the signature, structure and cordiality guards at
    acceptance time.
    """

    def __init__(self, n: int, f: int, keyring: Keyring | None = None):
        if n < 3 * f + 1:
            raise ValueError(f"n={n} violates n >= 3f+1 for f={f}")
        self.n = n
        self.f = f
        self.quorum = 2 * f + 1
        self.keyring = keyring
        # Dense per-index columns for accepted blocks.
        self._ids: list[bytes] = []
        self._blocks: list[Block] = []
        self._creator: list[int] = []
        self._depth: list[int] = []
        self._parents: list[tuple[int, ...]] = []
        self._closure: list[int] = []  # bitmask over indices, includes self
        self._index: dict[bytes, int] = {}
        self._by_creator: dict[int, list[int]] = {}
        self._by_depth: dict[int, list[int]] = {}
        self._creator_ack: dict[int, int] = {}  # OR of closures of creator's blocks
        self._equivocators: set[int] = set()
        self._partner_cache: dict[int, tuple[int, int]] = {}
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

    def creators_at(self, d: int, exclude_equivocators: bool = False) -> set[int]:
        out = set()
        for i in self._by_depth.get(d, ()):
            c = self._creator[i]
            if exclude_equivocators and c in self._equivocators:
                continue
            out.add(c)
        return out

    def latest_by(self, q: MinerId) -> bytes | None:
        """The most recently accepted q-block (deepest, for a correct q)."""
        idxs = self._by_creator.get(q)
        if not idxs:
            return None
        best = max(idxs, key=lambda i: (self._depth[i], self._ids[i]))
        return self._ids[best]

    def blocks_by(self, q: MinerId) -> list[bytes]:
        return [self._ids[i] for i in self._by_creator.get(q, ())]

    # -- insertion -----------------------------------------------------

    def insert(self, block: Block) -> AcceptResult:
        """Accept, buffer or reject a block; cascades the buffer on success.

        Re-inserting a known block is a no-op. A block with a dangling
        pointer is buffered; a structurally bad, badly signed or non-cordial
        block is rejected and recorded in ``violations``.
        """
        bid = block_id(block)
        if bid in self._index:
            return AcceptResult("accepted")
        if bid in self.buffer:
            return AcceptResult("buffered")
        reason = self._screen(bid, block)
        if reason:
            self.violations.append((bid, reason))
            return AcceptResult("rejected", reason=reason)
        if any(p not in self._index for p in block.pointers):
            self.buffer[bid] = block
            return AcceptResult("buffered")
        reason = self._final_checks(block)
        if reason:
            self.violations.append((bid, reason))
            return AcceptResult("rejected", reason=reason)
        newly = [bid]
        self._accept(bid, block)
        newly.extend(self._cascade())
        return AcceptResult("accepted", tuple(newly))

    def _screen(self, bid: bytes, block: Block) -> str | None:
        problem = structural_error(block)
        if problem:
            return REJECT_MALFORMED
        if self.keyring is not None and not self.keyring.verify(block):
            return REJECT_BAD_SIGNATURE
        if not (0 <= block.creator < self.n):
            return REJECT_MALFORMED
        if bid in block.pointers:
            return REJECT_SELF_POINTER
        return None

    def _final_checks(self, block: Block) -> str | None:
        """Checks that need resolved pointers: pointee uniqueness, cordiality."""
        seen = set()
        for p in block.pointers:
            c = self._creator[self._index[p]]
            if c in seen:
                return REJECT_DUPLICATE_CREATOR
            seen.add(c)
        if not self._cordial(block):
            return REJECT_NON_CORDIAL
        return None

    def _cordial(self, block: Block) -> bool:
        if not block.pointers:
            return True  # depth-1 blocks are unconditionally cordial
        parent_idx = [self._index[p] for p in block.pointers]
        depth = 1 + max(self._depth[i] for i in parent_idx)
        mask = 0
        for i in parent_idx:
            mask |= self._closure[i]
        creators = set()
        for i in self._by_depth.get(depth - 1, ()):
            if (mask >> i) & 1:
                creators.add(self._creator[i])
                if len(creators) >= self.quorum:
                    return True
        return False

    def _accept(self, bid: bytes, block: Block) -> None:
        idx = len(self._ids)
        parent_idx = tuple(self._index[p] for p in block.pointers)
        depth = 1 + max((self._depth[i] for i in parent_idx), default=0)
        mask = 1 << idx
        for i in parent_idx:
            mask |= self._closure[i]
        self._ids.append(bid)
        self._blocks.append(block)
        self._creator.append(block.creator)
        self._depth.append(depth)
        self._parents.append(parent_idx)
        self._closure.append(mask)
        self._index[bid] = idx
        self._by_depth.setdefault(depth, []).append(idx)
        self._max_depth = max(self._max_depth, depth)
        siblings = self._by_creator.setdefault(block.creator, [])
        for s in siblings:
            # Older same-creator blocks can never acknowledge the newcomer,
            # so one direction decides the pair.
            if not (mask >> s) & 1:
                self._equivocators.add(block.creator)
        siblings.append(idx)
        self._creator_ack[block.creator] = self._creator_ack.get(block.creator, 0) | mask

    def _cascade(self) -> list[bytes]:
        accepted: list[bytes] = []
        progress = True
        while progress:
            progress = False
            for bid, blk in list(self.buffer.items()):
                if any(p not in self._index for p in blk.pointers):
                    continue
                del self.buffer[bid]
                reason = self._final_checks(blk)
                if reason:
                    self.violations.append((bid, reason))
                else:
                    self._accept(bid, blk)
                    accepted.append(bid)
                progress = True
        return accepted

    # -- relations -----------------------------------------------------

    def acknowledges(self, a: bytes, b: bytes) -> bool:
        """Strict: a non-empty pointer path leads from a to b."""
        ia, ib = self._idx(a), self._idx(b)
        return ia != ib and bool((self._closure[ia] >> ib) & 1)

    def closure(self, roots) -> set[bytes]:
        """All blocks reachable from the roots, roots included."""
        mask = 0
        for r in roots:
            mask |= self._closure[self._idx(r)]
        return {self._ids[i] for i in _bits(mask)}

    def closure_mask(self, bid: bytes) -> int:
        return self._closure[self._idx(bid)]

    def mask_of(self, ids) -> int:
        mask = 0
        for r in ids:
            mask |= self._closure[self._idx(r)]
        return mask

    def ids_in_mask(self, mask: int) -> list[bytes]:
        return [self._ids[i] for i in _bits(mask)]

    def tips(self, ids) -> set[bytes]:
        """Members of ids with no incoming pointer from within ids."""
        chosen = {self._idx(b) for b in ids}
        pointed: set[int] = set()
        for i in chosen:
            pointed.update(p for p in self._parents[i] if p in chosen)
        return {self._ids[i] for i in chosen - pointed}

    # -- fault analysis ------------------------------------------------

    def is_equivocation(self, b1: bytes, b2: bytes) -> bool:
        i1, i2 = self._idx(b1), self._idx(b2)
        if i1 == i2 or self._creator[i1] != self._creator[i2]:
            return False
        return not ((self._closure[i1] >> i2) & 1 or (self._closure[i2] >> i1) & 1)

    def _partner_mask(self, i: int) -> int:
        """Bitmask of accepted blocks forming an equivocation with block i."""
        c = self._creator[i]
        siblings = self._by_creator.get(c, ())
        cached = self._partner_cache.get(i)
        if cached and cached[0] == len(siblings):
            return cached[1]
        mask = 0
        mine = self._closure[i]
        for s in siblings:
            if s == i:
                continue
            if not ((mine >> s) & 1 or (self._closure[s] >> i) & 1):
                mask |= 1 << s
        self._partner_cache[i] = (len(siblings), mask)
        return mask

    def approves(self, b1: bytes, b: bytes) -> bool:
        """b acknowledges b1 and none of b1's equivocation partners."""
        i1, ib = self._idx(b1), self._idx(b)
        m = self._closure[ib]
        if not (m >> i1) & 1:
            return False
        return not (m & self._partner_mask(i1))

    def ratifies(self, b1: bytes, b2: bytes, alpha: int) -> bool:
        """b2 acknowledges blocks at depth(b1)+alpha approving b1 by >= 2f+1
        distinct creators."""
        i1, i2 = self._idx(b1), self._idx(b2)
        target = self._depth[i1] + alpha
        m2 = self._closure[i2]
        creators: set[int] = set()
        for i in self._by_depth.get(target, ()):
            if not (m2 >> i) & 1:
                continue
            if self.approves(b1, self._ids[i]):
                creators.add(self._creator[i])
                if len(creators) >= self.quorum:
                    return True
        return False

    def approval_creators(self, b1: bytes, depth: int | None = None) -> set[int]:
        """Distinct creators of accepted blocks approving b1, optionally at
        one fixed depth."""
        creators: set[int] = set()
        if depth is None:
            rows = [i for idxs in self._by_depth.values() for i in idxs]
        else:
            rows = self._by_depth.get(depth, ())
        for i in rows:
            if self.approves(b1, self._ids[i]):
                creators.add(self._creator[i])
        return creators

    def is_faulty(self, q: MinerId) -> bool:
        """q equivocated. Non-cordial blocks never enter the store, so
        equivocation is the only fault the accepted set can show."""
        return q in self._equivocators

    def cordial_round(self, p: MinerId) -> int | None:
        """Deepest round with a >= 2f+1 non-equivocator quorum that p has not
        built past; 0 authorizes p's initial block; None if p must wait."""
        own = self._by_creator.get(p, ())
        own_max = max((self._depth[i] for i in own), default=0)
        for d in range(self._max_depth, max(own_max, 1) - 1, -1):
            creators = self.creators_at(d, exclude_equivocators=True)
            if len(creators) >= self.quorum:
                return d
        return 0 if own_max == 0 else None

    # -- block creation ------------------------------------------------

    def create_block(self, p: MinerId, payload: bytes, prefix,
                     share: bytes = b"") -> Block:
        """Create, sign and accept a new p-block over the given prefix.

        Points at the prefix tips (one per creator) and chains to p's latest
        block; raises WouldEquivocate rather than fork p's chain.
        """
        prefix = set(prefix)
        tip_ids = sorted(self.tips(prefix))
        per_creator: dict[int, bytes] = {}
        for t in tip_ids:
            c = self.creator_of(t)
            cur = per_creator.get(c)
            if cur is None or (self.depth_of(t), t) > (self.depth_of(cur), cur):
                per_creator[c] = t
        chosen = sorted(per_creator.values())
        latest = self.latest_by(p)
        if latest is not None:
            prefix_depth = max((self.depth_of(t) for t in chosen), default=0)
            if self.depth_of(latest) > prefix_depth:
                raise WouldEquivocate(
                    f"miner {p} already has a block deeper than the prefix")
            covered = self.mask_of(chosen) if chosen else 0
            if not (covered >> self._idx(latest)) & 1:
                if p in per_creator:
                    raise WouldEquivocate(
                        f"prefix tip by miner {p} is not its latest block")
                chosen = sorted(chosen + [latest])
        blk = make_block(p, payload, chosen, share)
        if self.keyring is not None:
            blk = self.keyring.sign(blk)
        res = self.insert(blk)
        if res.status != "accepted":
            raise StoreError(f"own block not accepted: {res.reason}")
        return blk


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
