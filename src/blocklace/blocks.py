"""Signed blocks, their canonical encoding, and the simulated PKI."""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace
from functools import cached_property

DIGEST_SIZE = 32
MAX_POINTERS = 0xFFFF
MAX_PAYLOAD = 0xFFFFFFFF

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
    A block is never mutated, so its encoding and id are built once, on
    first use, and then kept.
    """

    creator: MinerId
    payload: bytes
    pointers: tuple[bytes, ...]
    signature: bytes = b""

    def __post_init__(self):
        if self.creator < 0:
            raise BlockError("negative creator")
        if len(self.payload) > MAX_PAYLOAD:
            raise BlockError("payload too long")
        if len(self.pointers) > MAX_POINTERS:
            raise BlockError("too many pointers")
        for p in self.pointers:
            if len(p) != DIGEST_SIZE:
                raise BlockError("pointer is not a 32-byte digest")
        if list(self.pointers) != sorted(set(self.pointers)):
            raise BlockError("pointers not sorted and unique")

    @cached_property
    def _encoding(self) -> bytes:
        parts = [
            self.creator.to_bytes(4, "big"),
            len(self.payload).to_bytes(4, "big"),
            self.payload,
            len(self.pointers).to_bytes(2, "big"),
        ]
        parts.extend(self.pointers)
        return b"".join(parts)

    @cached_property
    def _id(self) -> bytes:
        return hashlib.sha256(self._encoding).digest()


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
    """Simulator-issued per-miner MAC keys standing in for a real PKI."""

    def __init__(self, seed: int, n: int):
        self.n = n
        self._seed = seed.to_bytes(8, "big", signed=False)
        # Derived on first use, so a transcript header's n costs nothing.
        self._keys: dict[MinerId, bytes] = {}

    def key(self, i: MinerId) -> bytes:
        key = self._keys.get(i)
        if key is None:
            key = self._keys[i] = hashlib.sha256(
                b"blocklace/key/" + self._seed + i.to_bytes(4, "big")).digest()
        return key

    def sign(self, b: Block) -> Block:
        sig = hmac.new(self.key(b.creator), encode_block(b), hashlib.sha256).digest()
        return replace(b, signature=sig)

    def verify(self, b: Block) -> bool:
        if not (0 <= b.creator < self.n):
            return False
        want = hmac.new(self.key(b.creator), encode_block(b), hashlib.sha256).digest()
        return hmac.compare_digest(want, b.signature)


def block_wire(b: Block) -> bytes:
    """Length-framed encoding plus signature, as carried inside a package."""
    enc = encode_block(b)
    return len(enc).to_bytes(4, "big") + enc + len(b.signature).to_bytes(2, "big") + b.signature


def encode_package(blocks) -> bytes:
    """Count-prefixed list of framed blocks."""
    out = [len(blocks).to_bytes(4, "big")]
    out.extend(block_wire(b) for b in blocks)
    return b"".join(out)


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
