"""Parity-filtration word invariants of free knots.

A free knot is an equivalence class of Gauss codes under the three
Reidemeister moves with all over/under and sign decorations forgotten.
This package reads a based chord diagram as a word over a small
alphabet cut out by an iterated linking-parity filtration, evaluates
the word in a group of involutions acting on Z^m x {0, 1}, and uses the
value (up to conjugacy, for the base-point-free question) to certify
diagrams as inequivalent.
"""

from .diagram import (Chord, ChordDiagram, LabelCountError, parse_gauss_code,
                      serialize)
from .explore import (CERTIFIED_DISTINCT, EXHAUSTED, FREE, LONG,
                      MINIMAL_FOUND, REDUCED_TO_EMPTY, SAME_INVARIANT,
                      SearchReport, distinguish, move_invariance_trial,
                      random_diagram, reduce, rotation_canonical_code,
                      rotation_classes, rotation_conjugacy_trial, scramble,
                      search_nontrivial)
from .group import (NO, YES, ConjugacyAnswer, MixedM, NormalForm,
                    apply_letter, conjugate_equal, corrupted_apply_letter,
                    evaluate, identity, relation_check, relations)
from .moves import (CROSSED, NESTED, GapOutOfRange, Move, NotAnR1Site,
                    NotAnR2Site, NotAnR3Site, apply_move, enumerate_moves,
                    r1_add, r1_remove, r1_sites, r2_add, r2_remove, r2_sites,
                    r3_apply, r3_sites, rotate_basepoint)
from .parity import (FINAL, Filtration, InvalidM, LevelOutOfRange, Word,
                     alphabet, double_prime, filtration, letter_level, prime,
                     word_of)

__all__ = [
    "CERTIFIED_DISTINCT", "CROSSED", "Chord", "ChordDiagram",
    "ConjugacyAnswer", "EXHAUSTED", "FINAL", "FREE", "Filtration",
    "GapOutOfRange", "InvalidM", "LONG", "LabelCountError", "LevelOutOfRange",
    "MINIMAL_FOUND", "MixedM", "Move", "NESTED", "NO", "NormalForm",
    "NotAnR1Site", "NotAnR2Site", "NotAnR3Site", "REDUCED_TO_EMPTY",
    "SAME_INVARIANT", "SearchReport", "Word", "YES", "alphabet",
    "apply_letter", "apply_move", "conjugate_equal", "corrupted_apply_letter",
    "distinguish", "double_prime", "enumerate_moves", "evaluate", "filtration",
    "identity", "letter_level", "move_invariance_trial", "parse_gauss_code",
    "prime", "r1_add", "r1_remove", "r1_sites", "r2_add", "r2_remove",
    "r2_sites", "r3_apply", "r3_sites", "random_diagram", "reduce",
    "relation_check", "relations", "rotate_basepoint",
    "rotation_canonical_code", "rotation_classes", "rotation_conjugacy_trial",
    "scramble", "search_nontrivial", "serialize", "word_of",
]
