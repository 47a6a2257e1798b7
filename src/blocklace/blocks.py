"""Signed blocks, their canonical encoding, and the simulated PKI."""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

DIGEST_SIZE = 32
MAX_POINTERS = 0xFFFF
MAX_PAYLOAD = 0xFFFFFFFF
_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))

MinerId = int


class BlockError(ValueError):
    pass


@dataclass(frozen=True)
class Block:
    """One blocklace vertex: creator, payload, hash pointers to prior blocks.

    Pointers are unique 32-byte digests kept in sorted order so that two
    structurally equal blocks encode identically. The signature covers the
    canonical encoding and is excluded from it. Building a block that breaks
    these structural limits raises BlockError, so every Block is well formed.
    A block is never mutated, so its encoding, id and hex id are built
    once, with the block, and then kept.
    """

    creator: MinerId
    payload: bytes
    pointers: tuple[bytes, ...]
    signature: bytes = b""

    def __post_init__(self):
        if not 0 <= self.creator <= 0xFFFFFFFF:
            raise BlockError("creator outside the u32 range")
        if len(self.payload) > MAX_PAYLOAD:
            raise BlockError("payload too long")
        if len(self.pointers) > MAX_POINTERS:
            raise BlockError("too many pointers")
        for p in self.pointers:
            if len(p) != DIGEST_SIZE:
                raise BlockError("pointer is not a 32-byte digest")
        if list(self.pointers) != sorted(set(self.pointers)):
            raise BlockError("pointers not sorted and unique")
        encoding = b"".join((self.creator.to_bytes(4, "big"), len(self.payload).to_bytes(4, "big"),
                             self.payload, len(self.pointers).to_bytes(2, "big"), *self.pointers))
        bid = hashlib.sha256(encoding).digest()
        object.__setattr__(self, "_encoding", encoding)
        object.__setattr__(self, "_id", bid)
        object.__setattr__(self, "_hex", bid.hex())


def make_block(creator: MinerId, payload: bytes, pointers) -> Block:
    """Build an unsigned block, normalizing the pointer set."""
    return Block(creator=creator, payload=payload, pointers=tuple(sorted(set(pointers))))


def encode_block(b: Block) -> bytes:
    """Canonical encoding; deterministic, signature excluded.

    Layout: creator u32be | payload-len u32be | payload | pointer-count u16be |
    sorted pointer digests.
    """
    return b._encoding


def block_id(b: Block) -> bytes:
    """SHA-256 of the canonical encoding."""
    return b._id


def decode_block(data: bytes, signature: bytes = b"") -> Block:
    """Inverse of encode_block. Raises BlockError on any framing problem."""
    try:
        pos = 0
        creator = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        plen = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        payload = data[pos:pos + plen]
        if len(payload) != plen:
            raise BlockError("truncated payload")
        pos += plen
        count = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        pointers = []
        for _ in range(count):
            d = data[pos:pos + DIGEST_SIZE]
            if len(d) != DIGEST_SIZE:
                raise BlockError("truncated pointer")
            pointers.append(d)
            pos += DIGEST_SIZE
        if pos != len(data):
            raise BlockError("trailing bytes")
    except (IndexError, ValueError) as exc:
        raise BlockError(str(exc)) from exc
    return Block(creator=creator, payload=payload, pointers=tuple(pointers), signature=signature)


class Keyring:
    """Simulator-issued per-miner MAC keys standing in for a real PKI.

    A signature is HMAC-SHA256 (RFC 2104) under the creator's key over the
    block's canonical encoding. The padded inner and outer hash states are
    derived once per key; each MAC copies them and hashes the full encoding,
    so every receiver still checks every signature itself.
    """

    def __init__(self, seed: int, n: int):
        self.n = n
        self._seed = seed.to_bytes(8, "big", signed=False)
        # Each key's (inner, outer) HMAC states, derived on first use, so a
        # transcript header's n costs nothing.
        self._pads: dict[MinerId, tuple] = {}

    def key(self, i: MinerId) -> bytes:
        return hashlib.sha256(b"blocklace/key/" + self._seed + i.to_bytes(4, "big")).digest()

    def _mac(self, b: Block) -> bytes:
        """hmac.new(self.key(b.creator), encode_block(b), sha256).digest()."""
        pads = self._pads.get(b.creator)
        if pads is None:
            # A 32-byte key is shorter than SHA-256's block, so HMAC pads it
            # with zeros and never hashes it first.
            key = self.key(b.creator).ljust(_SHA256_BLOCK, b"\0")
            pads = self._pads[b.creator] = (hashlib.sha256(key.translate(_IPAD)),
                                            hashlib.sha256(key.translate(_OPAD)))
        inner, outer = pads[0].copy(), pads[1].copy()
        inner.update(b._encoding)
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, b: Block) -> Block:
        mac = self._mac(b)
        # Equal to dataclasses.replace(b, signature=mac), built without a
        # second __post_init__: b's fields were checked when b was built,
        # and the signature lies outside the encoding, so b's encoding, id
        # and hex id hold for the signed block too.
        signed = object.__new__(Block)
        signed.__dict__.update(b.__dict__, signature=mac)
        return signed

    def verify(self, b: Block) -> bool:
        if not (0 <= b.creator < self.n):
            return False
        return hmac.compare_digest(self._mac(b), b.signature)


def block_wire(b: Block) -> bytes:
    """Length-framed encoding plus signature, as carried inside a package."""
    enc = encode_block(b)
    return len(enc).to_bytes(4, "big") + enc + len(b.signature).to_bytes(2, "big") + b.signature


def encode_package(blocks) -> bytes:
    """Count-prefixed list of framed blocks."""
    out = [len(blocks).to_bytes(4, "big")]
    out.extend(block_wire(b) for b in blocks)
    return b"".join(out)


def package_size(blocks) -> int:
    """len(encode_package(blocks)), counted without building it."""
    return 4 + sum(6 + len(b._encoding) + len(b.signature) for b in blocks)


def decode_package(data: bytes) -> list[Block]:
    count = int.from_bytes(data[0:4], "big")
    pos = 4
    blocks = []
    for _ in range(count):
        elen = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        enc = data[pos:pos + elen]
        pos += elen
        slen = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        sig = data[pos:pos + slen]
        pos += slen
        blocks.append(decode_block(enc, sig))
    if pos != len(data):
        raise BlockError("trailing bytes in package")
    return blocks
