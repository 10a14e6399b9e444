"""Output checks for every operation, and the corruptions that the
negative control feeds them.

A check raises CheckFailed with a reason.  The checks judge freeknot's
JSON against the reference model, which shares no code with freeknot:
normal forms are recomputed, conjugacy witnesses are replayed through
the reference action, move paths are replayed through the reference
moves, and search hits are re-evaluated and matched against the pinned
census table.
"""

import json

import reference
from workloads import CENSUS_COUNTS

REDUCE_OUTCOMES = {"reduced_to_empty", "minimal_found", "exhausted"}


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _value(nf: dict) -> tuple[tuple[int, ...], int]:
    return tuple(nf["x"]), nf["eps"]


def _gauss_matches(payload: dict) -> list:
    """The labels of the reported diagram, after checking that its
    Gauss code and chord list agree."""
    labels = payload["gauss"].split()
    chords = [list(c) for c in reference.chords(labels)]
    _require(payload["diagram"] == {"n": len(chords), "chords": chords},
             "diagram JSON disagrees with its Gauss code")
    _require(payload["gauss"] == reference.code(labels),
             "Gauss code is not canonically labelled")
    return labels


def check_invariant(op, rc: int, payload: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    (entry,) = payload["diagrams"]
    labels = op.data["labels"]
    _require(entry["gauss"] == reference.code(labels), "gauss echo differs")
    n = len(labels) // 2
    for result in entry["results"]:
        m = result["m"]
        word = reference.word(labels, m)
        _require(len(result["word"]) == 2 * n, f"m={m}: word length")
        _require(result["word"] == word, f"m={m}: word differs")
        for split in result["filtration"]["splits"]:
            _require(len(split["odd"]) % 2 == 0, f"m={m}: odd part is odd")
        got = _value(result["normal_form"])
        _require(got[1] == 0, f"m={m}: eps is not 0")
        _require(got == reference.value(labels, m),
                 f"m={m}: normal form {got} differs from the reference")
        _require(got == reference.value(op.data["same_as"], m),
                 f"m={m}: twin's normal form differs from its original")


def check_compare(op, rc: int, payload: dict) -> None:
    left, right = op.data["left"], op.data["right"]
    relations = [e["relation"] for e in payload["per_m"]]
    _require("undetermined" not in relations, "undetermined relation")
    same = all(r == "conjugate" for r in relations)
    verdict = "same_invariant" if same else "certified_distinct"
    _require(payload["verdict"] == verdict, f"verdict {payload['verdict']}")
    _require(rc == payload["exit_code"] == (0 if same else 1),
             f"exit code {rc}")
    if op.data["rotation"]:
        _require(same, "a rotation pair was not same_invariant")
    for entry in payload["per_m"]:
        m = entry["m"]
        a, b = _value(entry["left"]), _value(entry["right"])
        _require(a == reference.value(left, m), f"m={m}: left value")
        _require(b == reference.value(right, m), f"m={m}: right value")
        if entry["relation"] == "conjugate":
            _require(reference.conjugate_by(left, m, entry["witness"]) == b,
                     f"m={m}: witness does not conjugate left to right")
        if m == 1:
            # infinite dihedral group: conjugate exactly when |x| agree
            dihedral = abs(a[0][0]) == abs(b[0][0])
            _require((entry["relation"] == "conjugate") == dihedral,
                     f"m=1: relation {entry['relation']} for {a} and {b}")


def check_scramble(op, rc: int, payload: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    labels = _gauss_matches(payload)
    before = reference.value(op.data["labels"], 1)[0][0]
    after = reference.value(labels, 1)[0][0]
    _require(abs(before) == abs(after),
             f"m=1 |x| {abs(before)} -> {abs(after)}")
    _require(len(labels) // 2 <= op.data["cap"], "size cap exceeded")


def check_reduce(op, rc: int, payload: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    outcome = payload["outcome"]
    _require(outcome in REDUCE_OUTCOMES, f"outcome {outcome!r}")
    _require(payload["visited"] <= payload["max_states"], "state cap exceeded")
    if outcome == "exhausted":
        return
    labels = op.data["labels"]
    try:
        for move in payload["path"]:
            labels = reference.apply(labels, move)
    except ValueError as exc:
        raise CheckFailed(f"path does not replay: {exc}") from None
    _require(reference.code(labels) == payload["gauss"],
             "path does not end at the reported diagram")
    if outcome == "reduced_to_empty":
        _require(not labels, "path does not reach the empty diagram")


def check_moves(op, rc: int, payload: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    labels = op.data["labels"]
    cap = payload["max_chords"]
    _require(cap == len(labels) // 2 + 2, f"max_chords {cap}")
    moves = payload["moves"]
    _require(len(moves) == reference.move_count(labels, cap),
             f"{len(moves)} moves listed")
    keys = {repr(sorted(mv.items())) for mv in moves}
    _require(len(keys) == len(moves), "a move is listed twice")
    for move in moves:
        try:
            reference.apply(labels, move)
        except ValueError as exc:
            raise CheckFailed(f"listed move does not apply: {exc}") from None


def check_search(op, rc: int, payload: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    c, m = op.data["max_chords"], op.data["m"]
    (entry,) = payload["per_m"]
    found = entry["witnesses"]
    _require(len(found) == CENSUS_COUNTS[c, m],
             f"{len(found)} witnesses, table says {CENSUS_COUNTS[c, m]}")
    _require(len(set(found)) == len(found), "a witness is listed twice")
    small = {w for w in found if len(w.split()) <= 10}
    _require(small == reference.WITNESSES_5,
             "witnesses up to 5 chords are not the paper's two")
    identity = ((0,) * m, 0)
    for w in found:
        labels = w.split()
        _require(len(labels) <= 2 * c, f"{w}: too many chords")
        _require(reference.rotation_canonical(labels) == w,
                 f"{w}: not a rotation-class representative")
        _require(reference.value(labels, m) != identity,
                 f"{w}: value is the identity")


CHECKS = {"invariant": check_invariant, "compare": check_compare,
          "scramble": check_scramble, "reduce": check_reduce,
          "moves": check_moves, "search": check_search}


def check(op, rc: int, stdout: str) -> None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        raise CheckFailed("stdout is not JSON") from None
    try:
        CHECKS[op.kind](op, rc, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


# Negative control: one deliberately wrong answer per kind of operation.

def _corrupt_invariant(payload: dict) -> None:
    payload["diagrams"][0]["results"][-1]["normal_form"]["x"][0] += 2


def _corrupt_compare(payload: dict) -> None:
    payload["per_m"][0]["left"]["x"][0] += 2


def _corrupt_scramble(payload: dict) -> None:
    # a connected sum with k witnesses moves x at m=1 by 8k
    x = reference.value(payload["gauss"].split(), 1)[0][0]
    k = 1 if abs(x + 8) != abs(x) else 2
    labels = reference.concat(["1 2 1 3 4 2 5 3 5 4"] * k + [payload["gauss"]])
    chords = reference.chords(labels)
    payload["gauss"] = reference.code(labels)
    payload["diagram"] = {"n": len(chords),
                          "chords": [list(c) for c in chords]}


def _corrupt_reduce(payload: dict) -> None:
    if payload["outcome"] == "exhausted":
        payload["outcome"] = "sideways"
    elif payload["path"]:
        payload["path"].pop()
    else:
        payload["outcome"] = "exhausted"
        payload["visited"] = payload["max_states"] + 1


def _corrupt_moves(payload: dict) -> None:
    payload["moves"].pop()


def _corrupt_search(payload: dict) -> None:
    payload["per_m"][0]["witnesses"].pop()


CORRUPT = {"invariant": _corrupt_invariant, "compare": _corrupt_compare,
           "scramble": _corrupt_scramble, "reduce": _corrupt_reduce,
           "moves": _corrupt_moves, "search": _corrupt_search}


def corrupted(op, stdout: str) -> str:
    """The operation's output with one deliberately wrong answer."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout  # already fails its check
    CORRUPT[op.kind](payload)
    return json.dumps(payload)
