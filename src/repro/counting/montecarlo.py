"""Naive Monte-Carlo baseline for #NFA.

Draw ``N`` uniformly random words of length ``n`` and return the accepted
fraction times ``|alphabet|^n``.  This is an unbiased estimator, but its
relative accuracy degrades with the *density* ``|L(A_n)| / |alphabet|^n``:
when the language is a vanishing fraction of all words (the common case for
interesting queries) the number of samples needed explodes — which is
precisely why the paper's FPRAS, whose cost is polynomial regardless of
density, is interesting.  The scaling benchmarks plot this contrast.

This module never spells words out as symbol tuples: :func:`draw_words`
returns a block of them as a ``(count, length)`` matrix of positions in
``nfa.alphabet``, drawn by NumPy's ``MT19937`` from the ``random.Random``
stream's own Mersenne Twister state (so the words and the stream's final
state are those of a ``rng.choice`` loop), and
:meth:`~repro.automata.engine.Engine.accepts_batch` takes that matrix as
it is.  A block is 8192 words, or ``2**18`` positions when that is more
words, so a run of short words shares one trie walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.automata.engine import Engine
from repro.automata.nfa import NFA
from repro.errors import ParameterError

#: Fewest words in one :func:`run_montecarlo` block.
BLOCK_WORDS = 8192
#: Most positions in one block once it holds more than :data:`BLOCK_WORDS`
#: words: ``8192 * 32``, so a block of words under 32 symbols holds no more
#: positions than an 8192-word block at ``n = 32``.
BLOCK_POSITIONS = 1 << 18


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Result of a naive Monte-Carlo run."""

    estimate: float
    hits: int
    samples: int
    total_words: int

    @property
    def density_estimate(self) -> float:
        """Estimated language density ``|L(A_n)| / |alphabet|^n``."""
        if self.samples == 0:
            return 0.0
        return self.hits / self.samples

    def relative_error(self, exact: int) -> float:
        if exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - exact) / exact


def draw_words(
    rng: random.Random, size: int, length: int, count: int
) -> np.ndarray:
    """``count`` uniform words of ``length`` symbols, as alphabet positions.

    Row-major, the ``(count, length)`` matrix holds exactly the positions
    that ``count * length`` successive ``rng.choice(alphabet)`` calls over
    a ``size``-symbol alphabet return, and ``rng`` is left in the same
    state those calls leave it in.

    For a plain :class:`random.Random` the draws come from NumPy's
    :class:`~numpy.random.MT19937`, which runs the same Mersenne Twister:
    it is loaded with ``rng``'s 624 key words and index (from
    ``getstate()``), its 32-bit outputs are taken in bulk with
    ``random_raw``, and its advanced state is written back with
    ``setstate`` (``gauss_next`` kept).  ``choice`` keeps an output's top
    ``size.bit_length()`` bits when they fall below ``size`` (the filter
    of ``Random._randbelow``) and otherwise draws again; each bulk pull
    asks only for the shortfall, so it never reads past the last output
    the scalar loop would read.  Subclasses (which may override
    ``random`` or ``getrandbits``) and alphabets of ``2**32`` or more
    symbols keep the scalar ``choice`` loop.

    >>> scalar, bulk = random.Random(5), random.Random(5)
    >>> flat = [scalar.choice("abc") for _ in range(8)]
    >>> words = draw_words(bulk, 3, 4, 2)
    >>> words.shape, ["abc"[position] for position in words.ravel()] == flat
    ((2, 4), True)
    >>> bulk.getstate() == scalar.getstate()
    True
    """
    draws = count * length
    bits = size.bit_length()
    if type(rng) is not random.Random or not 0 < bits <= 32:
        positions = range(size)
        flat = [rng.choice(positions) for _ in range(draws)]
        return np.array(flat, dtype=np.intp).reshape(count, length)
    words = np.empty(draws, dtype=np.intp)
    if draws:
        version, internal, gauss_next = rng.getstate()
        twister = np.random.MT19937(0)  # seeded only to be overwritten
        key = np.array(internal[:-1], dtype=np.uint32)
        twister.state = {
            "bit_generator": "MT19937",
            "state": {"key": key, "pos": internal[-1]},
        }
        shift = 32 - bits
        filled = 0
        while filled < draws:
            outputs = twister.random_raw(draws - filled)
            outputs >>= shift
            kept = outputs.compress(outputs < size)
            words[filled : filled + len(kept)] = kept
            filled += len(kept)
        state = twister.state["state"]
        rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return words.reshape(count, length)


def run_montecarlo(
    nfa: NFA,
    length: int,
    num_samples: int,
    rng: random.Random,
    engine: Engine,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> MonteCarloEstimate:
    """Core Monte-Carlo loop over an already-acquired simulation engine.

    This is the implementation behind the registered ``"montecarlo"``
    counting method (see :mod:`repro.counting.api`), which handles engine
    acquisition and diagnostics; use :func:`count_montecarlo` or
    ``repro.count(..., method="montecarlo")`` instead of calling it
    directly.

    Words are drawn in blocks by :func:`draw_words` (consuming the RNG
    stream exactly as the historical word-at-a-time loop did) and each
    block is accepted by one
    :meth:`~repro.automata.engine.Engine.accepts_batch` call on its
    position matrix, so words sharing a prefix are simulated through it
    once.  A block is :data:`BLOCK_WORDS` words or :data:`BLOCK_POSITIONS`
    positions, whichever is more words: words under 32 symbols share one
    trie walk per ``2**18`` positions, and longer words keep 8192-word
    blocks.  The drawn words and acceptance decisions — and therefore the
    estimate — are backend- and batching-independent for a fixed seed.

    ``progress``, when given, is called after every block with
    ``{"method", "samples", "num_samples", "hits", "total_words"}`` — the
    anytime hook the serving layer streams running estimates from.  It
    never touches ``rng``, so a monitored run is bit-identical.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    if num_samples <= 0:
        raise ParameterError("num_samples must be positive")
    size = len(nfa.alphabet)
    total_words = size**length
    # Bounded blocks keep peak memory bounded regardless of num_samples;
    # the block size also fixes the batch counters (one batch per block).
    block_size = max(BLOCK_WORDS, BLOCK_POSITIONS // max(length, 1))
    hits = 0
    remaining = num_samples
    while remaining:
        block = min(block_size, remaining)
        hits += sum(engine.accepts_batch(draw_words(rng, size, length, block)))
        remaining -= block
        if progress is not None:
            progress(
                {
                    "method": "montecarlo",
                    "samples": num_samples - remaining,
                    "num_samples": num_samples,
                    "hits": hits,
                    "total_words": total_words,
                }
            )
    estimate = (hits / num_samples) * total_words
    return MonteCarloEstimate(
        estimate=estimate, hits=hits, samples=num_samples, total_words=total_words
    )


def count_montecarlo(
    nfa: NFA,
    length: int,
    num_samples: int = 10_000,
    seed: Optional[Union[int, random.Random]] = None,
    backend: Optional[str] = None,
    use_engine_cache: bool = True,
) -> MonteCarloEstimate:
    """Estimate ``|L(A_length)|`` with ``num_samples`` uniform random words.

    Legacy one-call entry point.  It delegates through the unified counting
    registry (``repro.count(..., method="montecarlo")``) and returns the raw
    :class:`MonteCarloEstimate`; the RNG stream, drawn words and estimate
    are bit-identical to the historical direct implementation.  ``seed`` may
    be an ``int`` or an existing ``random.Random`` stream to continue.
    """
    from repro.counting.api import count
    from repro.counting.policy import ExecutionPolicy

    report = count(
        nfa,
        length,
        method="montecarlo",
        seed=seed,
        policy=ExecutionPolicy(backend=backend, use_engine_cache=use_engine_cache),
        num_samples=num_samples,
    )
    return report.raw
