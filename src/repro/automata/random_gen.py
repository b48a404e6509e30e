"""Random NFA / DFA / regex generators.

The paper has no public benchmark suite, so workloads are synthesised.  The
generators here are deliberately parameterised by the quantities that drive
the FPRAS's behaviour: number of states ``m``, transition density (which
controls how much the predecessor languages overlap — the hard part of the
counting problem), and the fraction of accepting states.

All generators accept either a seed or an existing :class:`random.Random`
instance so experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple, Union

from repro.automata.nfa import BINARY_ALPHABET, NFA, Symbol, Transition

RandomSource = Union[int, random.Random, None]


def _rng(source: RandomSource) -> random.Random:
    """Normalise a seed / Random / None into a Random instance."""
    if isinstance(source, random.Random):
        return source
    return random.Random(source)


def random_nfa(
    num_states: int,
    density: float = 0.3,
    accepting_fraction: float = 0.3,
    alphabet: Sequence[Symbol] = BINARY_ALPHABET,
    seed: RandomSource = None,
    ensure_connected: bool = True,
) -> NFA:
    """Generate a random NFA with ``num_states`` states.

    Parameters
    ----------
    density:
        Probability that any particular ``(source, symbol, target)`` triple is
        a transition.  Densities around ``2 / num_states`` give sparse
        automata; larger values give heavily overlapping predecessor
        languages.
    accepting_fraction:
        Expected fraction of states marked accepting (at least one state is
        always accepting).
    ensure_connected:
        When set, every non-initial state receives at least one incoming
        transition from an earlier state so the whole automaton is reachable,
        mirroring the paper's assumption that all unrolled states are
        reachable.
    """
    if num_states < 1:
        raise ValueError("num_states must be positive")
    rng = _rng(seed)
    states = [f"s{i}" for i in range(num_states)]
    transitions: Set[Transition] = set()
    for source in states:
        for symbol in alphabet:
            for target in states:
                if rng.random() < density:
                    transitions.add((source, symbol, target))
    if ensure_connected:
        # A connecting edge enters only its own target, which the loop
        # never visits again, so the set needs no update inside it.
        has_incoming = {target for (_source, _symbol, target) in transitions}
        for index in range(1, num_states):
            target = states[index]
            if target not in has_incoming:
                source = states[rng.randrange(index)]
                symbol = rng.choice(list(alphabet))
                transitions.add((source, symbol, target))
    accepting = {
        state for state in states if rng.random() < accepting_fraction
    }
    if not accepting:
        accepting = {rng.choice(states)}
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset(accepting),
        alphabet=tuple(alphabet),
    )


def random_nonempty_nfa(
    num_states: int,
    length: int,
    density: float = 0.3,
    accepting_fraction: float = 0.3,
    alphabet: Sequence[Symbol] = BINARY_ALPHABET,
    seed: RandomSource = None,
    max_attempts: int = 200,
) -> NFA:
    """Like :func:`random_nfa` but guaranteed to accept some word of ``length``.

    Counting experiments are vacuous on empty slices; this wrapper resamples
    (with derived seeds, so the result is still deterministic per seed) until
    the slice at ``length`` is non-empty.
    """
    rng = _rng(seed)
    for _ in range(max_attempts):
        candidate = random_nfa(
            num_states,
            density=density,
            accepting_fraction=accepting_fraction,
            alphabet=alphabet,
            seed=rng.randrange(2**62),
        )
        if not candidate.is_empty_slice(length):
            return candidate
    raise RuntimeError(
        "failed to generate an NFA with a non-empty slice; increase density"
    )


def random_dfa(
    num_states: int,
    accepting_fraction: float = 0.3,
    alphabet: Sequence[Symbol] = BINARY_ALPHABET,
    seed: RandomSource = None,
) -> NFA:
    """A random complete DFA, returned as an :class:`NFA` (deterministic).

    DFAs are the unambiguous special case: exact counting is polynomial, so
    they make good ground-truth-rich workloads for accuracy experiments.
    """
    rng = _rng(seed)
    states = [f"d{i}" for i in range(num_states)]
    transitions: Set[Transition] = set()
    for source in states:
        for symbol in alphabet:
            transitions.add((source, symbol, rng.choice(states)))
    accepting = {state for state in states if rng.random() < accepting_fraction}
    if not accepting:
        accepting = {rng.choice(states)}
    return NFA(
        states=frozenset(states),
        initial=states[0],
        transitions=frozenset(transitions),
        accepting=frozenset(accepting),
        alphabet=tuple(alphabet),
    )


def random_word(
    length: int,
    alphabet: Sequence[Symbol] = BINARY_ALPHABET,
    seed: RandomSource = None,
) -> Tuple[Symbol, ...]:
    """A uniformly random word of the given length."""
    rng = _rng(seed)
    return tuple(rng.choice(list(alphabet)) for _ in range(length))


def random_regex(
    depth: int = 3,
    alphabet: Sequence[Symbol] = BINARY_ALPHABET,
    seed: RandomSource = None,
) -> str:
    """A random regular expression (string form) of bounded nesting depth.

    Used to generate regular-path-query workloads.  Star is applied
    sparingly so the compiled automata keep non-trivial length-``n`` slices.
    """
    rng = _rng(seed)

    def build(level: int) -> str:
        if level <= 0:
            return rng.choice(list(alphabet))
        choice = rng.random()
        if choice < 0.35:
            return build(level - 1) + build(level - 1)
        if choice < 0.6:
            return "(" + build(level - 1) + "|" + build(level - 1) + ")"
        if choice < 0.75:
            return "(" + build(level - 1) + ")*"
        if choice < 0.85:
            return "(" + build(level - 1) + ")?"
        return rng.choice(list(alphabet)) + build(level - 1)

    return build(depth)


def random_labeled_graph(
    num_nodes: int,
    num_edges: int,
    labels: Sequence[Symbol],
    seed: RandomSource = None,
) -> List[Tuple[str, Symbol, str]]:
    """A random edge-labeled multigraph, as a list of ``(src, label, dst)``.

    This is the raw material for the graph-database / RPQ application; node
    names are ``v0 .. v{num_nodes-1}``.
    """
    rng = _rng(seed)
    nodes = [f"v{i}" for i in range(num_nodes)]
    edges: List[Tuple[str, Symbol, str]] = []
    seen: Set[Tuple[str, Symbol, str]] = set()
    attempts = 0
    while len(edges) < num_edges and attempts < 50 * num_edges:
        attempts += 1
        edge = (rng.choice(nodes), rng.choice(list(labels)), rng.choice(nodes))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    return edges
