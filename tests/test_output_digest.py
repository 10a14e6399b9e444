"""The seeded `--json` output of invariant, compare, moves, scramble,
reduce and selfcheck is byte-identical to the pinned digests (see
tests/output_digest.py).  A change that means to alter that output
re-pins them and says why."""

from output_digest import digests

PINNED = {
    "invariant": "a4d46e92fdfdc716849479a165c296e3",
    "compare": "b5bb479767405c2194c9941fd1d28d84",
    "moves": "fc4efa91e312b52ff3ff4f558a6da4ee",
    "scramble": "a95806d4ce1e4596c355494e79afd0af",
    "reduce": "ced326a02520f02ab512b288cb01a7cd",
    "selfcheck": "88fa60b28f43b695ae6f468409dd4107",
}


def test_output_matches_the_pinned_digests():
    assert digests() == PINNED
