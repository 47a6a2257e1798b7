"""Canonical encoding, ids, signatures, and the package wire format."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import hmac
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklace.blocks import (
    Block,
    BlockError,
    Keyring,
    block_id,
    decode_block,
    decode_package,
    encode_block,
    encode_package,
    make_block,
    package_size,
)

GOLDEN_ENC = (
    "000000020000000e676f6c64656e207061796c6f61640002"
    "0303030303030303030303030303030303030303030303030303030303030303"
    "0707070707070707070707070707070707070707070707070707070707070707"
)
GOLDEN_ID = "b620e17cb0c61453aca52d36fe3d27d2e554a0120a9efda3700c9f93124eafdd"


def golden_block() -> Block:
    return make_block(2, b"golden payload", [bytes([7]) * 32, bytes([3]) * 32])


def test_encoding_deterministic():
    a = make_block(1, b"x", [bytes(32)])
    b = make_block(1, b"x", [bytes(32)])
    assert encode_block(a) == encode_block(b)
    assert block_id(a) == block_id(b)


def test_pointer_order_irrelevant():
    p1, p2 = bytes([1]) * 32, bytes([2]) * 32
    a = make_block(0, b"x", [p1, p2])
    b = make_block(0, b"x", [p2, p1])
    assert encode_block(a) == encode_block(b)


def test_payload_changes_encoding():
    a = make_block(0, b"x", [])
    b = make_block(0, b"y", [])
    assert encode_block(a) != encode_block(b)


def test_golden_vector_frozen():
    blk = golden_block()
    assert encode_block(blk).hex() == GOLDEN_ENC
    assert block_id(blk).hex() == GOLDEN_ID


def test_no_collisions_over_random_blocks():
    rng = random.Random(7)
    seen = set()
    for i in range(100_000):
        blk = Block(creator=rng.randrange(16),
                    payload=rng.randbytes(rng.randrange(8)),
                    pointers=())
        seen.add(block_id(blk))
        if i % 9 == 0:
            seen.add(block_id(Block(creator=blk.creator, payload=blk.payload + b"!",
                                    pointers=())))
    # Payload space is tiny so duplicates of equal blocks collapse; distinct
    # structures must never collide.
    blocks = set()
    rng = random.Random(8)
    for _ in range(100_000):
        blocks.add((rng.randrange(4), rng.randbytes(6)))
    ids = {block_id(Block(creator=c, payload=p, pointers=())) for c, p in blocks}
    assert len(ids) == len(blocks)


def test_decode_roundtrip():
    blk = golden_block()
    again = decode_block(encode_block(blk), b"sig")
    assert again.creator == blk.creator
    assert again.payload == blk.payload
    assert again.pointers == blk.pointers
    assert again.signature == b"sig"


def test_decode_rejects_trailing_garbage():
    with pytest.raises(BlockError):
        decode_block(encode_block(golden_block()) + b"\x00")


def test_make_block_rejects_bad_pointer():
    with pytest.raises(BlockError):
        make_block(0, b"", [b"short"])


LOW, HIGH = bytes([1]) * 32, bytes([2]) * 32


@pytest.mark.parametrize("fields, message", [
    ({"creator": -1}, "creator outside the u32 range"),
    ({"creator": 2 ** 32}, "creator outside the u32 range"),
    ({"pointers": (b"short",)}, "pointer is not a 32-byte digest"),
    ({"pointers": (HIGH, LOW)}, "pointers not sorted and unique"),
    ({"pointers": (LOW, LOW)}, "pointers not sorted and unique"),
    ({"pointers": tuple(i.to_bytes(32, "big") for i in range(0x10000))}, "too many pointers"),
], ids=["negative-creator", "wide-creator", "short-pointer", "unsorted", "duplicate",
        "too-many-pointers"])
def test_block_constructor_rejects_malformed_fields(fields, message):
    """Every Block is well formed: building or rebuilding one that breaks a
    structural limit raises, so no receiver needs to check structure. The
    pointer count is encoded in two bytes."""
    base = {"creator": 0, "payload": b"x", "pointers": (LOW, HIGH)}
    with pytest.raises(BlockError, match=f"^{message}$"):
        Block(**{**base, **fields})
    with pytest.raises(BlockError, match=f"^{message}$"):
        dataclasses.replace(Block(**base), **fields)


def test_keyring_sign_and_verify():
    keyring = Keyring(42, 4)
    blk = keyring.sign(make_block(1, b"hello", []))
    assert keyring.verify(blk)
    forged = Block(creator=2, payload=blk.payload, pointers=blk.pointers,
                   signature=blk.signature)
    assert not keyring.verify(forged)
    tampered = Block(creator=1, payload=b"hellO", pointers=blk.pointers,
                     signature=blk.signature)
    assert not keyring.verify(tampered)


@st.composite
def unsigned_blocks(draw):
    """An unsigned block by one of 7 miners, with a payload from empty to
    longer than SHA-256's 64-byte block and 0-6 pointers."""
    pointers = draw(st.lists(st.binary(min_size=32, max_size=32), max_size=6))
    return make_block(draw(st.integers(0, 6)), draw(st.binary(max_size=100)), pointers)


@st.composite
def random_blocks(draw):
    """Signed blocks with random fields within the structural limits."""
    keyring = Keyring(draw(st.integers(0, 2 ** 16)), 7)
    return keyring, keyring.sign(draw(unsigned_blocks()))


def layout_encoding(blk: Block) -> bytes:
    """The documented layout, built independently of encode_block."""
    return (struct.pack(">II", blk.creator, len(blk.payload)) + blk.payload
            + struct.pack(">H", len(blk.pointers)) + b"".join(blk.pointers))


def reference_mac(keyring: Keyring, blk: Block) -> bytes:
    return hmac.new(keyring.key(blk.creator), encode_block(blk), hashlib.sha256).digest()


@settings(max_examples=100, deadline=None)
@given(unsigned_blocks(), st.integers(0, 2 ** 16), st.integers(1, 2 ** 16))
def test_sign_and_verify_match_hmac(blk, seed, shift):
    keyring, other = Keyring(seed, 7), Keyring(seed + shift, 7)
    signed = keyring.sign(blk)
    for _ in range(2):  # the per-key pads are derived, then reused
        assert signed.signature == reference_mac(keyring, blk)
        assert keyring.verify(signed)
    assert other.sign(blk).signature == reference_mac(other, blk) != signed.signature
    assert not other.verify(signed)
    assert not keyring.verify(other.sign(blk))


@settings(max_examples=100, deadline=None)
@given(unsigned_blocks(), st.integers(0, 2 ** 16), st.booleans())
def test_sign_equals_replace_with_the_signature(blk, seed, cached):
    keyring = Keyring(seed, 7)
    if cached:
        block_id(blk)
    signed = keyring.sign(blk)
    want = dataclasses.replace(blk, signature=reference_mac(keyring, blk))
    assert signed == want and hash(signed) == hash(want)
    assert encode_block(signed) == encode_block(want) == layout_encoding(blk)
    assert block_id(signed) == block_id(want) == hashlib.sha256(layout_encoding(blk)).digest()
    assert blk.signature == b""


@settings(max_examples=100, deadline=None)
@given(unsigned_blocks(), st.integers(0, 2 ** 16), st.integers(0, 31), st.integers(1, 255))
def test_flipped_signature_byte_fails_after_the_original_verified(blk, seed, at, flip):
    keyring = Keyring(seed, 7)
    signed = keyring.sign(blk)
    assert keyring.verify(signed)
    sig = bytearray(signed.signature)
    sig[at] ^= flip
    forged = Block(creator=blk.creator, payload=blk.payload, pointers=blk.pointers,
                   signature=bytes(sig))
    assert not keyring.verify(forged)
    assert keyring.verify(signed)


@settings(max_examples=100, deadline=None)
@given(random_blocks())
def test_cached_id_is_hash_of_documented_layout(case):
    _, blk = case
    want = layout_encoding(blk)
    for _ in range(2):  # computed, then cached
        assert encode_block(blk) == want
        assert block_id(blk) == hashlib.sha256(want).digest()


@settings(max_examples=100, deadline=None)
@given(random_blocks())
def test_every_way_of_building_a_block_sets_its_id(case):
    """The encoding and id are built with the block, by whichever path
    built it: each block's id is the hash of its encoding."""
    keyring, blk = case
    built = [make_block(blk.creator, blk.payload, blk.pointers),
             decode_block(encode_block(blk), blk.signature),
             keyring.sign(make_block(blk.creator, blk.payload, blk.pointers)),
             dataclasses.replace(blk), dataclasses.replace(blk, payload=blk.payload + b"!")]
    for b in [blk, *built]:
        assert encode_block(b) == layout_encoding(b)
        assert block_id(b) == hashlib.sha256(encode_block(b)).digest()


@settings(max_examples=100, deadline=None)
@given(random_blocks())
def test_made_signed_and_decoded_blocks_keep_their_hex_id(case):
    """The hex id every transcript line names a block by is the block's
    own, kept beside its id: made, signed and decoded alike."""
    keyring, blk = case
    made = make_block(blk.creator, blk.payload, blk.pointers)
    signed = keyring.sign(made)
    decoded = decode_block(encode_block(signed), signed.signature)
    for b in (made, signed, decoded):
        assert b._hex == block_id(b).hex()
    assert signed._hex is made._hex


@settings(max_examples=100, deadline=None)
@given(random_blocks())
def test_equality_and_hash_ignore_the_cached_id(case):
    _, blk = case
    twin = dataclasses.replace(blk)
    block_id(blk)
    assert blk == twin and twin == blk
    assert hash(blk) == hash(twin)
    assert twin in {blk}


@settings(max_examples=100, deadline=None)
@given(random_blocks(), st.data())
def test_rebuilt_block_gets_a_fresh_id(case, data):
    keyring, blk = case
    old_id, old_enc = block_id(blk), encode_block(blk)
    field = data.draw(st.sampled_from(["creator", "payload", "pointers"]))
    if field == "creator":
        value = (blk.creator + data.draw(st.integers(1, 7))) % 8
    elif field == "pointers":
        value = tuple(sorted(set(blk.pointers) ^ {bytes(32)}))  # toggle one
    else:
        value = blk.payload + b"!"
    rebuilt = dataclasses.replace(blk, **{field: value})
    assert rebuilt.signature == blk.signature
    assert encode_block(rebuilt) == layout_encoding(rebuilt) != old_enc
    assert block_id(rebuilt) != old_id
    assert not keyring.verify(rebuilt)
    assert keyring.verify(blk)


@settings(max_examples=50, deadline=None)
@given(random_blocks())
def test_deepcopy_keeps_the_id(case):
    _, blk = case
    bid = block_id(blk)
    again = copy.deepcopy(blk)
    assert again == blk
    assert block_id(again) == bid
    assert encode_block(again) == encode_block(blk)


@settings(max_examples=100, deadline=None)
@given(st.lists(random_blocks(), max_size=5))
def test_package_roundtrip(cases):
    blocks = [blk for _, blk in cases]
    back = decode_package(encode_package(blocks))
    assert [block_id(b) for b in back] == [block_id(b) for b in blocks]
    assert [b.signature for b in back] == [b.signature for b in blocks]
    assert package_size(blocks) == len(encode_package(blocks))


@st.composite
def spliced_wire(draw):
    """A valid block or package encoding with a random span replaced."""
    blocks = [blk for _, blk in draw(st.lists(random_blocks(), min_size=1, max_size=3))]
    wire = draw(st.sampled_from([encode_block(blocks[0]), encode_package(blocks)]))
    i = draw(st.integers(0, len(wire)))
    j = draw(st.integers(i, len(wire)))
    return wire[:i] + draw(st.binary(max_size=8)) + wire[j:]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=200), spliced_wire()))
def test_arbitrary_bytes_decode_or_raise_block_error(data):
    for decode in (decode_block, decode_package):
        try:
            decode(data)
        except BlockError:
            pass
