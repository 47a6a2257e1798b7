"""Golden transcripts: the SHA-256 of ``run(scenario).jsonl()`` is pinned for
a fixed scenario set covering both models, n in {4, 7, 10, 16}, every
adversary kind, and every Byzantine behaviour. A refactor that claims to keep
behaviour must leave every digest unchanged; a deliberate behaviour change
updates the digests in the same commit and says why."""

from __future__ import annotations

import hashlib

import pytest

from blocklace.simnet import ByzSpec, Scenario, run

ASYNC = "asynchrony"
UNIFORM = {"kind": "uniform", "min": 1, "max": 3}

SCENARIOS = {
    "es-n4": Scenario(n=4, f=1, rounds=24, seed=1),
    "es-n7": Scenario(n=7, f=2, rounds=16, seed=2, delays=UNIFORM),
    "es-n10-timer": Scenario(n=10, f=3, rounds=12, seed=3, delta=2),
    "es-n16": Scenario(n=16, f=5, rounds=8, seed=4),
    "async-n4": Scenario(n=4, f=1, model=ASYNC, rounds=20, seed=1, delays=UNIFORM),
    "async-n7": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=2),
    "async-n10": Scenario(n=10, f=3, model=ASYNC, rounds=10, seed=3, delays=UNIFORM),
    "async-n16": Scenario(n=16, f=5, model=ASYNC, rounds=10, seed=4),
    "es-random-delay": Scenario(rounds=20, seed=5,
                                delays={"kind": "uniform", "min": 0, "max": 4},
                                adversary={"kind": "random-delay"}),
    "es-pre-gst": Scenario(n=7, f=2, rounds=16, seed=6, gst=10, delay_bound=4,
                           adversary={"kind": "pre-gst", "max_delay": 9}),
    "es-corrupt-leader": Scenario(rounds=20, seed=7, delays=UNIFORM,
                                  adversary={"kind": "corrupt-leader", "lag": 3}),
    "async-reorder": Scenario(model=ASYNC, rounds=20, seed=8, delays=UNIFORM,
                              adversary={"kind": "reorder", "lag": 2}),
    "async-random-delay": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=9,
                                   delays=UNIFORM, adversary={"kind": "random-delay"}),
    "es-equivocate-0.5": Scenario(n=7, f=2, rounds=16, seed=10, delays=UNIFORM,
                                  byzantine={6: ByzSpec("equivocate", rate=0.5)}),
    "async-equivocate-1.0": Scenario(n=7, f=2, model=ASYNC, rounds=15, seed=11,
                                     delays=UNIFORM,
                                     adversary={"kind": "reorder", "lag": 2},
                                     byzantine={2: ByzSpec("equivocate", rate=1.0)}),
    "es-equivocate-1.0": Scenario(rounds=16, seed=12, delays=UNIFORM,
                                  adversary={"kind": "corrupt-leader", "lag": 2},
                                  byzantine={3: ByzSpec("equivocate", rate=1.0)}),
    "es-crash": Scenario(n=7, f=2, rounds=16, seed=13, delays=UNIFORM,
                         byzantine={5: ByzSpec("crash", round=4),
                                    6: ByzSpec("crash", round=7)}),
    "async-silent": Scenario(model=ASYNC, rounds=15, seed=14, delays=UNIFORM,
                             byzantine={3: ByzSpec("silent")}),
}

DIGESTS = {
    "es-n4": "a01e7840787e0bb25e0339824790bed0cc023e73b6904c2794036609f84c9bfe",
    "es-n7": "b6e92975faa0ee3201de141b4979511b26c24d1be77e0136aabb28bfe34dcb04",
    "es-n10-timer": "4a311ab4fcdb5f2f18037b7e95711b605a7cf3d325b97c8cfaed5d380ff35435",
    "es-n16": "4bf0ea772fa2156716dafdc8c1bfb6cefad6215bd1ea794cd9d6097bc1e05d37",
    "async-n4": "9ea12dc49e272c96a8933898375edea77a491095c0a870139ef3b42bb736538e",
    "async-n7": "86f7c0f9b754ee625ddd6c9cbce325e3f00ebcb3de804dc749d183353b44baa3",
    "async-n10": "5df8759a7e9c7f37cf8308bb92b4204137332ac6b4e5f3f1d72507dbea460240",
    "async-n16": "940cf4f5f668d2d251e8e04582af3986b176f98a59cb96cdb2776f46f10967e5",
    "es-random-delay": "2436b213c88d4145146f098a73b7527ea142b87b7b8c4ec5e0fd5337524062e1",
    "es-pre-gst": "26e0fbc9dc9f39cf462b27e66f64f346d3224c18ea7bc3a94a70941154ce03b9",
    "es-corrupt-leader": "fb076fc05b147a9d60aa792de24ebf4f2a16e8b6c117b9ac08d1e7c810a8d04d",
    "async-reorder": "9ff346d68c705cc8214893d26cb6fa8a3f4671909e4fa2e29545a037a8d02568",
    "async-random-delay": "0813f4584bc68f94f863a428f8ea417016efe816ed67dadeffde2917de87080c",
    "es-equivocate-0.5": "6cdcd1f2fe7b953f6422cac221d076c84a9e38421a7b974db0b2a8f6c91b0ad6",
    "async-equivocate-1.0": "dd94e1f8bbaa72dd294c7827718a6a2787be85c7b650190517dc1e1c05a15897",
    "es-equivocate-1.0": "18d6813e4acba9660737de898c0a9ad060a25c202c5566bc43376c49edca2382",
    "es-crash": "076ad50faf2c97604a7cb24bb02dc31aa529e49d21aa9dbb232e634aaa0d51c1",
    "async-silent": "4a1398ac61ba042b5a9b46cba3d755af365b614fccbf1b3c8f63b94d0f784df9",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_transcript(name):
    got = hashlib.sha256(run(SCENARIOS[name]).jsonl().encode()).hexdigest()
    assert got == DIGESTS[name]
