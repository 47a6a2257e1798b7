"""A miner's local blocklace: the closed accepted set, a dangling-block
buffer, and the analysis predicates (paths, depth, equivocation, approval,
ratification, cordiality) that everything else is built on."""

from __future__ import annotations

from typing import NamedTuple

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


class AcceptResult(NamedTuple):
    """Outcome of one insert: status plus any cascade of newly accepted ids.
    insert builds an accepted one positionally, so keep the field order."""

    status: str  # "accepted" | "buffered" | "rejected"
    newly_accepted: tuple[bytes, ...] = ()
    reason: str | None = None


# The outcomes of inserting a known or a buffered block, shared by every insert.
_KNOWN = AcceptResult("accepted")
_BUFFERED = AcceptResult("buffered")
# What BlockStore._admit returns for a block with a pointee not accepted yet.
_WAIT = "wait"


class BlockTable:
    """What depends only on a block and its pointees, kept once for the
    stores of one committee that share the table: id, creator, depth and
    closure (a bitmask over the dense index, self included) of each block
    that passed the duplicate-creator and cordiality checks. No signature
    check is kept: each store checks every block it is given.

    The ordering answers that read only table facts are kept here once,
    and the stores fill them: ``verdicts``, which maps (candidate, block,
    alpha) to the ratification rule's answer, in _ratifies, and
    ``fragments``, which maps a leader block to the (predecessor's index or
    -1, delivered, suppressed) of the first fragment cut, in fragment.
    """

    def __init__(self):
        self.index: dict[bytes, int] = {}
        self.ids: list[bytes] = []
        self.blocks: list[Block] = []
        self.creator: list[int] = []
        self.depth: list[int] = []
        self.closure: list[int] = []
        self.verdicts: dict[tuple[int, int, int], bool] = {}
        self.fragments: dict[int, tuple[int, tuple[bytes, ...], tuple[bytes, ...]]] = {}


class BlockStore:
    """Closed blocklace plus a buffer of blocks with dangling pointers.

    Closures are kept as bitmasks over the dense indices of a BlockTable,
    shared by a run's stores or private to this one, which makes
    acknowledgement, approval and set-difference queries cheap enough for
    thousand-run sweeps. A mask is opaque outside this module: callers get
    masks from closure_mask, mask_of, own_masks and unshown, combine them
    with & and |, and ask covers or blocks_in_mask what they hold. The
    accepted set is append-only; every accepted block satisfied the
    signature and cordiality guards at acceptance time (its own blocks the
    cordiality guard alone).
    """

    def __init__(self, n: int, f: int, keyring: Keyring | None = None,
                 table: BlockTable | None = None):
        if n < 3 * f + 1:
            raise ValueError(f"n={n} violates n >= 3f+1 for f={f}")
        self.n = n
        self.f = f
        # Any two quorums share f+1 creators, so a correct one, for every
        # n >= 3f+1; at n = 3f+1 this is 2f+1.
        self.quorum = (n + f) // 2 + 1
        self.keyring = keyring
        self.table = table = BlockTable() if table is None else table
        # The table's columns, by table index. They may hold blocks this
        # store has not accepted, so they are read only at indices taken
        # from _index or from this store's own lists and masks.
        self._ids, self._blocks, self._creator, self._depth, self._closure = (
            table.ids, table.blocks, table.creator, table.depth, table.closure)
        self._index: dict[bytes, int] = {}  # accepted id -> index, in acceptance order
        self._accepted = 0  # bitmask of the accepted indices
        # A creator not in _equivocators has one chain, and its last block in
        # acceptance order is its latest: a pointee is accepted before its
        # pointer, and a block acknowledging another is deeper than it.
        self._by_creator: dict[int, list[int]] = {}
        self._by_depth: dict[int, list[int]] = {}
        self._round_creators: dict[int, int] = {}  # depth -> bitmask of creators
        self._creator_ack: dict[int, int] = {}  # OR of closures of creator's blocks
        self._acked_at: dict[int, int] = {}  # index -> depth of a block acknowledging it
        self._equivocators: set[int] = set()
        self.buffer: dict[bytes, Block] = {}
        self.violations: list[tuple[bytes, str]] = []  # rejected (id, reason), until drained
        # Rounds 1..quorum_round, and no others, have blocks by a quorum of
        # creators, equivocators included: a block with pointers is admitted
        # only over a quorum of creators one round below it.
        self.quorum_round = 0

    # -- basic lookups -------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, bid: bytes) -> bool:
        return bid in self._index

    def get(self, bid: bytes) -> Block:
        return self._blocks[self.index_of(bid)]

    def accepted_ids(self) -> list[bytes]:
        """All accepted ids in acceptance order."""
        return list(self._index)

    def max_depth(self) -> int:
        """The deepest accepted round: a block's deepest pointee is one
        round below it, so rounds 1..max_depth, and no others, hold
        accepted blocks."""
        return len(self._by_depth)

    def index_of(self, bid: bytes) -> int:
        """Table index of an accepted block (mask bit position); raises
        UnknownBlock for any other id."""
        try:
            return self._index[bid]
        except KeyError:
            raise UnknownBlock(bid.hex()) from None

    def depth_of(self, bid: bytes) -> int:
        return self._depth[self.index_of(bid)]

    def creator_of(self, bid: bytes) -> int:
        return self._creator[self.index_of(bid)]

    def blocks_at(self, d: int) -> list[bytes]:
        return [self._ids[i] for i in self._by_depth.get(d, ())]

    def blocks_by_at(self, c: MinerId, d: int) -> list[bytes]:
        """c's accepted blocks of round d, by id."""
        creators = self._creator
        return sorted(self._ids[i] for i in self._by_depth.get(d, ()) if creators[i] == c)

    def blocks_prefix(self, d: int) -> set[bytes]:
        """Accepted blocks of depth <= d."""
        out = set()
        for depth, idxs in self._by_depth.items():
            if depth <= d:
                out.update(self._ids[i] for i in idxs)
        return out

    def creators_at(self, d: int) -> set[int]:
        return set(bits(self._round_creators.get(d, 0)))

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
        block, one pointing at two blocks by one creator, or one whose
        creator is out of range, is rejected and recorded in ``violations``.
        """
        bid = block_id(block)
        if bid in self._index:
            return _KNOWN
        if bid in self.buffer:
            return _BUFFERED
        reason = self._screen(block) or self._admit(bid, block)
        if reason is _WAIT:
            self.buffer[bid] = block
            return _BUFFERED
        if reason:
            self.violations.append((bid, reason))
            return AcceptResult("rejected", reason=reason)
        ids = (bid, *self._cascade()) if self.buffer else (bid,)
        return tuple.__new__(AcceptResult, ("accepted", ids, None))  # skips NamedTuple.__new__

    def _screen(self, block: Block) -> str | None:
        """Every store's own checks of every block it is given; a Block is well
        formed by construction. The creator range comes first, so an out-of-range
        creator is malformed with or without a keyring, and costs no MAC."""
        if not (0 <= block.creator < self.n):
            return REJECT_MALFORMED
        if self.keyring is not None and not self.keyring.verify(block):
            return REJECT_BAD_SIGNATURE
        return None

    def _admit(self, bid: bytes, block: Block, pointees: list[int] | None = None) -> str | None:
        """Accept a screened or own block, or return why it is rejected, or
        _WAIT while a pointee is not accepted here. A block the table lacks
        is checked (a self-pointer at once, the rest once its pointees are),
        and its facts added; a block the table holds has passed these checks.

        Depth falls by at least one along every pointer, so the closure's
        blocks one round below the new block are exactly its direct pointees
        there, whose creators are distinct once the duplicate check passes:
        cordiality counts them.
        """
        table = self.table
        idx = table.index.get(bid)
        if idx is None:
            if bid in block.pointers:
                return REJECT_SELF_POINTER
            if pointees is None:
                pointees = list(map(self._index.get, block.pointers))
                if None in pointees:
                    return _WAIT
            below = list(map(self._depth.__getitem__, pointees))
            depth = 1 + max(below, default=0)
            if len(set(map(self._creator.__getitem__, pointees))) < len(pointees):
                return REJECT_DUPLICATE_CREATOR
            if pointees and below.count(depth - 1) < self.quorum:
                return REJECT_NON_CORDIAL
            idx = table.index[bid] = len(self._ids)
            mask = 1 << idx
            for i in pointees:
                mask |= self._closure[i]
            self._ids.append(bid)
            self._blocks.append(block)
            self._creator.append(block.creator)
            self._depth.append(depth)
            self._closure.append(mask)
        elif (self._closure[idx] & ~self._accepted).bit_count() > 1:
            return _WAIT
        depth, creator, mask = self._depth[idx], block.creator, self._closure[idx]
        self._index[bid] = idx
        self._accepted |= 1 << idx
        self._by_depth.setdefault(depth, []).append(idx)
        round_creators = self._round_creators[depth] = (
            self._round_creators.get(depth, 0) | 1 << creator)
        if depth > self.quorum_round and round_creators.bit_count() >= self.quorum:
            self.quorum_round = depth
        siblings = self._by_creator.setdefault(creator, [])
        # The chain's last block cannot acknowledge the newcomer, and the
        # newcomer acknowledges the whole chain iff it acknowledges that one;
        # its closure then holds every closure of the chain.
        if creator in self._equivocators or siblings and not (mask >> siblings[-1]) & 1:
            self._equivocators.add(creator)
            mask |= self._creator_ack[creator]
        siblings.append(idx)
        self._creator_ack[creator] = mask
        return None

    def _cascade(self) -> list[bytes]:
        accepted: list[bytes] = []
        progress = True
        while progress:
            progress = False
            for bid, blk in list(self.buffer.items()):
                reason = self._admit(bid, blk)
                if reason is _WAIT:
                    continue
                del self.buffer[bid]
                if reason:
                    self.violations.append((bid, reason))
                else:
                    accepted.append(bid)
                progress = True
        return accepted

    # -- relations -----------------------------------------------------

    def closure_mask(self, bid: bytes) -> int:
        return self._closure[self.index_of(bid)]

    def mask_of(self, bids) -> int:
        """The mask of the accepted blocks bids."""
        return sum(1 << i for i in set(map(self.index_of, bids)))

    def covers(self, mask: int, bid: bytes) -> bool:
        """Accepted block bid is in mask."""
        return bool(mask >> self.index_of(bid) & 1)

    def misplaced(self, bids) -> int | None:
        """The position of the first of the accepted blocks bids that comes
        before a block of its closure, or None when bids is parents-first: a
        running mask of the blocks so far must hold each block's closure."""
        index, closure, placed = self._index, self._closure, 0
        for k, bid in enumerate(bids):
            placed |= 1 << (i := index[bid])
            if closure[i] | placed != placed:
                return k
        return None

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
        an equivocator's blocks are all tested."""
        depths, ids, acked, unacked = self._depth, self._ids, self._acked_at, self._unacked
        out: dict[int, bytes] = {}
        for c, idxs in self._by_creator.items():
            if c in self._equivocators:
                tips = [i for i in idxs
                        if depths[i] <= r and acked.get(i, r + 1) > r and unacked(i, r)]
                if tips:
                    out[c] = ids[max(tips, key=self._rank)]
                continue
            k = len(idxs) - 1
            while k >= 0 and depths[idxs[k]] > r:
                k -= 1
            if k >= 0:
                x = idxs[k]
                if depths[x] == r or acked.get(x, r + 1) > r and unacked(x, r):
                    out[c] = ids[x]
        return out

    def _unacked(self, i: int, r: int) -> bool:
        """No accepted block of depth <= r points at block i, so none there
        acknowledges it: depth falls along every path. Scans upward from
        i's round and keeps the depth found."""
        closure, by_depth = self._closure, self._by_depth
        for d in range(self._depth[i] + 1, r + 1):
            for j in by_depth.get(d, ()):
                if (closure[j] >> i) & 1:
                    self._acked_at[i] = d
                    return False
        return True

    # -- fault analysis ------------------------------------------------

    def is_equivocation(self, b1: bytes, b2: bytes) -> bool:
        i1, i2 = self.index_of(b1), self.index_of(b2)
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
        return self._approves(self.index_of(b1), self.index_of(b))

    def _approves(self, i1: int, ib: int) -> bool:
        m = self._closure[ib]
        return bool((m >> i1) & 1) and not (m & self._partner_mask(i1))

    def ratifies(self, b1: bytes, b2: bytes, alpha: int) -> bool:
        """b2 acknowledges blocks at depth(b1)+alpha approving b1 by a quorum
        of distinct creators."""
        return self._ratifies(self.index_of(b1), self.index_of(b2), alpha)

    def _ratifies(self, i1: int, i2: int, alpha: int) -> bool:
        """The table keeps each verdict: it reads only table facts, so it is
        fixed once both blocks are accepted, for every store that shares it."""
        verdicts, key = self.table.verdicts, (i1, i2, alpha)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = self._ratification(i1, i2, alpha)
        return verdict

    def _ratification(self, i1: int, i2: int, alpha: int) -> bool:
        """The ratification rule itself, with no kept verdict: _approves(i1,
        i) inlined, with i1's partners found once."""
        target = self._depth[i1] + alpha
        closure, partners = self._closure, self._partner_mask(i1)
        m2 = closure[i2]
        creators: set[int] = set()
        for i in self._by_depth.get(target, ()):
            if not (m2 >> i) & 1:
                continue
            if (closure[i] >> i1) & 1 and not closure[i] & partners:
                creators.add(self._creator[i])
                if len(creators) >= self.quorum:
                    return True
        return False

    def ratifying_creators(self, cand: bytes, d: int, alpha: int) -> set[int]:
        """The creators of the round-d blocks that ratify cand, skipping a
        creator already counted."""
        i1, creators = self.index_of(cand), self._creator
        out: set[int] = set()
        for i in self._by_depth.get(d, ()):
            if creators[i] not in out and self._ratifies(i1, i, alpha):
                out.add(creators[i])
        return out

    def fragment(self, b1: bytes, prev: bytes | None) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        """What b1's closure adds to the closure of prev, the leader block
        delivered before it (None before any), in topological order (depth,
        creator, id): the blocks b1 approves, and the rest. The cut reads
        only table facts, so the table keeps the first one and hands it to
        each caller with the same predecessor."""
        i1, ip = self.index_of(b1), -1 if prev is None else self.index_of(prev)
        cut = self.table.fragments.get(i1)
        if cut is None or cut[0] != ip:
            ids, creators, depths = self._ids, self._creator, self._depth
            out, suppressed = [], []
            placed = 0 if prev is None else self._closure[ip]
            # b1 acknowledges every fragment block, so only an equivocator's can fail.
            for i in sorted(bits(self._closure[i1] & ~placed),
                            key=lambda i: (depths[i], creators[i], ids[i])):
                ok = creators[i] not in self._equivocators or self._approves(i, i1)
                (out if ok else suppressed).append(ids[i])
            cut = (ip, tuple(out), tuple(suppressed))
            self.table.fragments.setdefault(i1, cut)
        return cut[1:]

    def is_faulty(self, q: MinerId) -> bool:
        """q equivocated. Non-cordial blocks never enter the store, so
        equivocation is the only fault the accepted set can show."""
        return q in self._equivocators

    def cordial_round(self, p: MinerId) -> int | None:
        """quorum_round, the deepest round with blocks by a quorum of
        creators, unless p has built past it, when p must wait (None). On
        an empty store it is 0, which authorizes p's initial block."""
        latest = self._latest(p)
        if latest is not None and self._depth[latest] > self.quorum_round:
            return None
        return self.quorum_round

    # -- dissemination -------------------------------------------------

    def own_masks(self, bid: bytes) -> tuple[int, int]:
        """The backlog and bare masks of own block bid: its closure less its
        pointees one round below that are not by known equivocators, and bid
        with its pointees by known equivocators."""
        index, depths, faulty = self._index, self._depth, self._equivocators
        own = index[bid]
        backlog, bare, below = self._closure[own], 1 << own, depths[own] - 1
        for p in self._blocks[own].pointers:
            i = index[p]
            if self._creator[i] in faulty:
                bare |= 1 << i
            elif depths[i] == below:
                backlog &= ~(1 << i)
        return backlog, bare

    def unshown(self, q: MinerId, mask: int, sent: int) -> int:
        """The blocks of mask that q has shown no evidence of knowing: not in
        the mask sent, nor acknowledged by an accepted q-block."""
        return mask & ~(sent | self._creator_ack.get(q, 0))

    def acknowledged_by(self, q: MinerId, bid: bytes) -> bool:
        """An accepted q-block acknowledges bid or is bid."""
        return bool(self._creator_ack.get(q, 0) >> self.index_of(bid) & 1)

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
