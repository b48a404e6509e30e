"""Brute-force #NFA baseline: explicit enumeration of the slice.

Only usable when ``|alphabet|^n`` is small; the counter walks all words of
length ``n`` and checks acceptance.  Tests use it as an independent oracle
against :mod:`repro.automata.exact` (which uses a completely different
algorithm), and the benchmark harness uses it to show the exponential wall
the approximation schemes avoid.
"""

from __future__ import annotations

from typing import Optional

from repro.automata.engine import Engine
from repro.automata.nfa import NFA
from repro.errors import ParameterError

#: Refuse to enumerate more words than this by default (safety valve).
DEFAULT_ENUMERATION_LIMIT = 2_000_000


def enumerate_count(
    nfa: NFA, length: int, limit: Optional[int], engine: Engine
) -> int:
    """Prefix-tree enumeration of ``|L(A_length)|`` on a supplied engine.

    This is the implementation behind the registered ``"bruteforce"``
    counting method (see :mod:`repro.counting.api`), which handles engine
    acquisition and wraps the count in a structured
    :class:`~repro.counting.api.CountReport` carrying the limit and
    engine-counter diagnostics; use ``repro.count(...,
    method="bruteforce")`` instead of calling it directly.

    The enumeration walks the prefix tree depth-first, carrying the engine
    handle of the reachable-state set along each branch so shared prefixes
    are simulated once and dead branches (empty state sets) are pruned —
    the exhaustive-enumeration limit of the prefix sharing that
    :meth:`~repro.automata.engine.Engine.simulate_batch` applies to sparse
    multisets.  No per-(state, level) memoisation is used — every surviving
    word is visited individually — so the counter stays an oracle
    methodologically independent of the subset-construction DP in
    :mod:`repro.automata.exact`.

    Raises :class:`~repro.errors.ParameterError` when the enumeration would
    exceed ``limit`` words (pass ``limit=None`` to disable the check).
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    total_words = len(nfa.alphabet) ** length
    if limit is not None and total_words > limit:
        raise ParameterError(
            f"brute force would enumerate {total_words} words (> limit {limit})"
        )
    alphabet = nfa.alphabet
    accepting = engine.accepting

    def count_from(handle: object, remaining: int) -> int:
        if engine.is_empty(handle):
            return 0
        if remaining == 0:
            return 1 if engine.intersects(handle, accepting) else 0
        return sum(
            count_from(engine.step(handle, symbol), remaining - 1)
            for symbol in alphabet
        )

    return count_from(engine.initial, length)
