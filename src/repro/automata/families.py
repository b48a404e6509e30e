"""Named structured NFA families used throughout tests and benchmarks.

Each family targets a specific behaviour of the FPRAS:

* ``all_words`` / ``parity`` / ``divisibility`` — deterministic automata with
  closed-form slice counts (cheap ground truth, sanity anchors);
* ``substring`` / ``suffix`` — classic nondeterministic automata whose
  predecessor languages overlap heavily (the regime where naive summation of
  estimates over-counts and the Karp–Luby union estimator earns its keep);
* ``union_of_patterns`` — unions of many pattern automata, the worst case for
  the per-state sample requirement;
* ``blocks`` — automata whose slice counts alternate between dense and sparse
  across levels, stressing the per-level error accumulation (Inv-1);
* ``ladder`` — long chains giving deep unrollings for runtime scaling;
* ``random_nfa`` — seeded random ensembles (the E3 scaling workload),
  addressable by ``seed`` / ``density`` like any other family.

The :data:`FAMILY_REGISTRY` maps family names to constructors so that the
benchmark harness and the CLI can reference workloads by name.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.automata.nfa import BINARY_ALPHABET, NFA, Symbol, Transition, word_from_string
from repro.errors import ParameterError


def all_words_nfa(alphabet: Sequence[Symbol] = BINARY_ALPHABET) -> NFA:
    """A single accepting state with a self loop on every symbol.

    ``|L(A_n)| = |alphabet|^n`` exactly — the simplest possible anchor.
    """
    transitions = frozenset(("q0", symbol, "q0") for symbol in alphabet)
    return NFA(
        states=frozenset({"q0"}),
        initial="q0",
        transitions=transitions,
        accepting=frozenset({"q0"}),
        alphabet=tuple(alphabet),
    )


def parity_nfa(ones_modulus: int = 2, residue: int = 0) -> NFA:
    """Binary words whose number of ``1`` symbols is ``residue`` mod ``modulus``.

    A deterministic cycle of ``modulus`` states; slice counts follow a
    binomial-sum closed form, so it doubles as an analytic ground truth.
    """
    if ones_modulus < 1:
        raise ValueError("modulus must be positive")
    states = [f"c{i}" for i in range(ones_modulus)]
    transitions: Set[Transition] = set()
    for index, state in enumerate(states):
        transitions.add((state, "0", state))
        transitions.add((state, "1", states[(index + 1) % ones_modulus]))
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset({states[residue % ones_modulus]}),
        alphabet=BINARY_ALPHABET,
    )


def divisibility_nfa(divisor: int) -> NFA:
    """Binary representations (MSB first) of numbers divisible by ``divisor``.

    The classic ``divisor``-state DFA on the remainder; deterministic, so
    exact counts are cheap at any scale.
    """
    if divisor < 1:
        raise ValueError("divisor must be positive")
    states = [f"r{i}" for i in range(divisor)]
    transitions: Set[Transition] = set()
    for remainder in range(divisor):
        for bit in (0, 1):
            target = (remainder * 2 + bit) % divisor
            transitions.add((states[remainder], str(bit), states[target]))
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset({states[0]}),
        alphabet=BINARY_ALPHABET,
    )


def substring_nfa(pattern: "str | int", alphabet: Sequence[Symbol] = BINARY_ALPHABET) -> NFA:
    """Words containing ``pattern`` as a (contiguous) substring.

    The natural nondeterministic construction: wait in the initial state,
    guess where the pattern starts, then verify it and loop in the accepting
    state.  Predecessor languages of the intermediate states overlap with the
    initial state's language, which is exactly the over-counting hazard
    AppUnion exists to handle.
    """
    word = word_from_string(str(pattern))
    if not word:
        raise ValueError("pattern must be non-empty")
    states = ["wait"] + [f"m{i}" for i in range(1, len(word))] + ["done"]
    transitions: Set[Transition] = set()
    for symbol in alphabet:
        transitions.add(("wait", symbol, "wait"))
        transitions.add(("done", symbol, "done"))
    chain = ["wait"] + [f"m{i}" for i in range(1, len(word))] + ["done"]
    for index, symbol in enumerate(word):
        transitions.add((chain[index], symbol, chain[index + 1]))
    return NFA(
        states=frozenset(states),
        initial="wait",
        transitions=frozenset(transitions),
        accepting=frozenset({"done"}),
        alphabet=tuple(alphabet),
    )


def suffix_nfa(pattern: "str | int", alphabet: Sequence[Symbol] = BINARY_ALPHABET) -> NFA:
    """Words ending with ``pattern``.

    The textbook example where the NFA has ``|pattern| + 1`` states but the
    minimal DFA needs ``2^{|pattern|}`` states — the family where exact
    counting via determinisation degrades and the FPRAS's polynomial
    dependence on ``m`` matters.
    """
    word = word_from_string(str(pattern))
    if not word:
        raise ValueError("pattern must be non-empty")
    states = [f"p{i}" for i in range(len(word) + 1)]
    transitions: Set[Transition] = set()
    for symbol in alphabet:
        transitions.add((states[0], symbol, states[0]))
    for index, symbol in enumerate(word):
        transitions.add((states[index], symbol, states[index + 1]))
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset({states[-1]}),
        alphabet=tuple(alphabet),
    )


def union_of_patterns_nfa(
    patterns: Sequence[str], alphabet: Sequence[Symbol] = BINARY_ALPHABET
) -> NFA:
    """Words containing at least one of ``patterns`` as a substring.

    Built as an explicit union of :func:`substring_nfa` automata.  The
    component languages overlap heavily (any word containing several
    patterns is counted once), so the slice count is far below the sum of
    the component counts — a direct stress test for the union estimator.
    """
    from repro.automata.operations import union

    if not patterns:
        raise ValueError("at least one pattern is required")
    return union([substring_nfa(p, alphabet) for p in patterns]).relabeled()


def blocks_nfa(block_length: int = 3) -> NFA:
    """Words that are concatenations of blocks ``0^k`` or ``1^k`` of fixed length.

    Slice counts oscillate: they are ``2^{n/k}`` when ``k`` divides ``n`` and
    0 otherwise at the accepting boundary, exercising levels whose languages
    are empty or tiny in the middle of the unrolling.
    """
    if block_length < 1:
        raise ValueError("block length must be positive")
    states = ["start"]
    transitions: Set[Transition] = set()
    for bit in "01":
        previous = "start"
        for position in range(1, block_length):
            state = f"b{bit}_{position}"
            states.append(state)
            transitions.add((previous, bit, state))
            previous = state
        transitions.add((previous, bit, "start"))
    return NFA(
        states=frozenset(states),
        initial="start",
        transitions=frozenset(transitions),
        accepting=frozenset({"start"}),
        alphabet=BINARY_ALPHABET,
    )


def ladder_nfa(rungs: int) -> NFA:
    """A long chain with parallel rails — deep, sparse, mildly ambiguous.

    Words must traverse ``rungs`` chain positions; at every position the word
    may run on either rail, and the rails only differ in which symbol loops,
    giving a controlled amount of ambiguity per level.
    """
    if rungs < 1:
        raise ValueError("rungs must be positive")
    transitions: Set[Transition] = set()
    states: List[str] = []
    for rail in ("a", "b"):
        for position in range(rungs + 1):
            states.append(f"{rail}{position}")
    for position in range(rungs):
        transitions.add((f"a{position}", "0", f"a{position + 1}"))
        transitions.add((f"a{position}", "1", f"b{position + 1}"))
        transitions.add((f"b{position}", "1", f"b{position + 1}"))
        transitions.add((f"b{position}", "0", f"a{position + 1}"))
        transitions.add((f"a{position}", "0", f"b{position + 1}"))
    for rail in ("a", "b"):
        transitions.add((f"{rail}{rungs}", "0", f"{rail}{rungs}"))
        transitions.add((f"{rail}{rungs}", "1", f"{rail}{rungs}"))
    return NFA(
        states=frozenset(states),
        initial="a0",
        transitions=frozenset(transitions),
        accepting=frozenset({f"a{rungs}", f"b{rungs}"}),
        alphabet=BINARY_ALPHABET,
    )


def no_consecutive_ones_nfa() -> NFA:
    """Binary words with no two consecutive ``1`` symbols (Fibonacci counts).

    ``|L(A_n)|`` is the ``(n+2)``-nd Fibonacci number, giving an analytic
    cross-check for the exact counters and a smoothly growing workload.
    """
    transitions = frozenset(
        {
            ("z", "0", "z"),
            ("z", "1", "o"),
            ("o", "0", "z"),
        }
    )
    return NFA(
        states=frozenset({"z", "o"}),
        initial="z",
        transitions=transitions,
        accepting=frozenset({"z", "o"}),
        alphabet=BINARY_ALPHABET,
    )


def corpus_nfa(fixture: str) -> NFA:
    """A checked-in real-workload corpus fixture, loaded by id.

    The ``corpus`` family is how harvested workloads (:mod:`repro.corpus`)
    enter every family-keyed surface — the CLI, the audit scenario matrix,
    the bench report — without new plumbing: ``{"family": "corpus",
    "args": {"fixture": "valid.uuid"}}`` is a scenario like any other.
    Loading is integrity-checked; a drifted fixture raises
    :class:`~repro.errors.CorpusError` instead of silently counting the
    wrong automaton.  Imported lazily so the automata layer does not
    depend on the corpus package at import time.
    """
    from repro.corpus import load_fixture_nfa

    return load_fixture_nfa(str(fixture))


def random_nfa_family(
    num_states: "int | str" = 6,
    length: "int | str" = 10,
    density: "float | str" = 0.3,
    accepting_fraction: "float | str" = 0.3,
    seed: "int | str" = 0,
) -> NFA:
    """A seeded random NFA with a guaranteed non-empty slice at ``length``.

    Registry wrapper over
    :func:`repro.automata.random_gen.random_nonempty_nfa` so the random
    ensembles of experiment E3 are addressable like any named family —
    ``{"family": "random_nfa", "args": {"num_states": 8, "seed": 3}}`` —
    by the CLI, the audit scenario matrix and :func:`run_matrix`.
    Deterministic per ``seed``.  Arguments are coerced (the CLI passes
    ``key=value`` strings), so ``density=0.4`` works spelled either way.
    """
    from repro.automata.random_gen import random_nonempty_nfa

    return random_nonempty_nfa(
        int(num_states),
        int(length),
        density=float(density),
        accepting_fraction=float(accepting_fraction),
        seed=int(seed),
    )


FamilyBuilder = Callable[..., NFA]

FAMILY_REGISTRY: Dict[str, FamilyBuilder] = {
    "all_words": all_words_nfa,
    "parity": parity_nfa,
    "divisibility": divisibility_nfa,
    "substring": substring_nfa,
    "suffix": suffix_nfa,
    "union_of_patterns": union_of_patterns_nfa,
    "blocks": blocks_nfa,
    "ladder": ladder_nfa,
    "no_consecutive_ones": no_consecutive_ones_nfa,
    "corpus": corpus_nfa,
    "random_nfa": random_nfa_family,
}


def build_family(name: str, **params: object) -> NFA:
    """Instantiate a named family with keyword parameters.

    Raises ``KeyError`` with the list of known families when the name is
    unknown, which the CLI turns into a friendly error message, and
    :class:`~repro.errors.ParameterError` naming the family's parameters
    when one is unknown or missing.
    """
    try:
        builder = FAMILY_REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown family {name!r}; known families: {sorted(FAMILY_REGISTRY)}"
        ) from error
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
    except TypeError as error:
        raise ParameterError(
            f"family {name!r} takes parameters {list(signature.parameters)}: {error}"
        ) from None
    return builder(**params)


def default_benchmark_suite() -> List[Tuple[str, NFA]]:
    """The mixed suite of named automata used by the accuracy benchmarks."""
    return [
        ("all_words", all_words_nfa()),
        ("parity_3", parity_nfa(3)),
        ("divisibility_5", divisibility_nfa(5)),
        ("substring_101", substring_nfa("101")),
        ("suffix_0110", suffix_nfa("0110")),
        ("union_patterns", union_of_patterns_nfa(["00", "11", "0101"])),
        ("no_consecutive_ones", no_consecutive_ones_nfa()),
        ("ladder_4", ladder_nfa(4)),
    ]
