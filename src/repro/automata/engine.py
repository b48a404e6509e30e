"""Pluggable NFA simulation engines.

Every hot loop of the FPRAS — membership oracles, live-state computation,
backward predecessor walks — reduces to a handful of operations on *sets of
NFA states*.  :class:`Engine` captures exactly that narrow interface, with
the set representation left opaque (a "handle"): the always-available
:class:`ReferenceEngine` uses plain ``frozenset`` objects (the semantics the
rest of the test suite pins down), while :class:`repro.automata.bitset
.BitsetEngine` packs states into integer bitmasks so a simulation step is a
few word-sized bit operations instead of Python-object set unions.

Handles are required to be hashable and to satisfy ``handle_a == handle_b``
iff the decoded state sets are equal, so callers may key caches by handle and
get identical hit/miss patterns on every backend.  All engines must be
*observationally identical*: for the same automaton and the same sequence of
operations they produce handles decoding to the same frozensets.  The
differential parity suite (``tests/test_engine_parity.py``) enforces this,
which in turn guarantees that an FPRAS run with a shared seed yields
bit-identical estimates and sampler draws on every backend.

Engines also keep cheap work counters (``step_ops``, ``pre_ops``,
``decode_ops``, plus the batch counters ``batch_calls`` / ``batch_words`` /
``batch_steps_saved``) which the counting layer surfaces through
:class:`repro.counting.fpras.CountResult` diagnostics and the benchmark
harness.

Two layers of amortisation live here:

* **batched simulation** — :meth:`Engine.simulate_batch` and
  :meth:`Engine.accepts_batch` process a whole multiset of words at once,
  sorting it so that words sharing a prefix step through that prefix
  exactly once (a trie walk without building the trie);
* **engine reuse** — :class:`EngineRegistry` memoises engines (and hence
  their precomputed transition tables) per ``(nfa, backend)``, so several
  counters, samplers or caches over the same automaton share one engine
  instead of rebuilding identical lookup tables.  :func:`acquire_engine`
  is the front door the rest of the codebase uses.

Example::

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = create_engine(nfa, "bitset")
    >>> engine.accepts("01")
    True
    >>> engine.accepts_batch(["0", "01"])
    [False, True]
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.automata.nfa import NFA, State, Symbol, Word, as_word
from repro.errors import AutomatonError, ParameterError

#: The backend used when callers do not ask for a specific one.
DEFAULT_BACKEND = "bitset"

#: Pseudo-backend resolved per automaton by :func:`resolve_backend`.
AUTO_BACKEND = "auto"

#: State count above which ``"auto"`` picks the vectorised ``"numpy"`` block
#: backend over the integer-mask ``"bitset"`` backend.  Below it the bitset
#: engine's byte-chunked lookup loop is cheaper than NumPy call overhead;
#: above it the block representation wins (``benchmarks/bench_block.py``
#: records the measured crossover on membership-dominated workloads, which
#: sits between 256 and 512 states on current CPython/NumPy builds).
AUTO_BLOCK_THRESHOLD = 256

#: A batch of words for :meth:`Engine.simulate_batch`: a sequence of
#: strings / symbol tuples, or a ``(count, length)`` integer matrix whose
#: rows are words spelled as positions in ``nfa.alphabet``.
WordBatch = Union[Sequence["str | Word"], np.ndarray]

#: Cap on memoised decoded frozensets per mask-based engine.  Engines held
#: by the shared registry live for the whole process, so decode memos must
#: not grow without bound (up to 2^m distinct masks exist); one FPRAS run
#: touches far fewer distinct sets than this.
DECODE_CACHE_LIMIT = 1 << 16


def decode_mask(states: Sequence[State], mask: int) -> FrozenSet[State]:
    """Frozenset of the states whose bits are set in an integer mask.

    Shared by the mask-based backends (``bitset`` stores masks as Python
    ints, ``numpy`` as the little-endian bytes of a block vector): bit
    ``i`` of ``mask`` selects ``states[i]``.  Keeping the bit iteration in
    one place keeps the two backends' decode semantics from drifting.

    >>> sorted(decode_mask(("a", "b", "c"), 0b101))
    ['a', 'c']
    """
    members = []
    while mask:
        low = mask & -mask
        members.append(states[low.bit_length() - 1])
        mask ^= low
    return frozenset(members)


def check_positions(matrix: np.ndarray, size: int) -> np.ndarray:
    """Validate a ``(count, length)`` matrix of positions in a ``size``-symbol alphabet.

    >>> check_positions(np.array([[0, 1], [1, 1]]), 2).shape
    (2, 2)
    >>> check_positions(np.array([[0, 2]]), 2)
    Traceback (most recent call last):
    ...
    repro.errors.ParameterError: word matrix holds positions outside [0, 2)
    """
    if matrix.ndim != 2 or matrix.dtype.kind not in "iu":
        raise ParameterError(
            f"a word matrix must be a 2-d integer array, got shape "
            f"{matrix.shape} of {matrix.dtype}"
        )
    if matrix.size and (matrix.min() < 0 or matrix.max() >= size):
        raise ParameterError(f"word matrix holds positions outside [0, {size})")
    return matrix


def position_words(alphabet: Sequence[Symbol], matrix: np.ndarray) -> List[Word]:
    """The symbol tuples spelled by the rows of a position matrix.

    >>> position_words(("a", "b"), np.array([[0, 1], [1, 1]]))
    [('a', 'b'), ('b', 'b')]
    """
    check_positions(matrix, len(alphabet))
    symbols = np.empty(len(alphabet), dtype=object)
    for position, symbol in enumerate(alphabet):
        symbols[position] = symbol
    return list(map(tuple, symbols[matrix].tolist()))


@dataclass(frozen=True)
class EngineCapabilities:
    """Declared feature set of one simulation backend.

    Capability negotiation replaces isinstance-style backend probing: a
    caller that wants a vectorised whole-level pass asks
    :meth:`Engine.capabilities` whether the backend declares
    ``level_kernel`` and, if so, obtains the kernel through
    :meth:`Engine.level_kernel` — otherwise it falls back bit-identically
    to the scalar handle loop.  Records are frozen so a declared capability
    set can never drift from what the registry promised at registration
    time.

    Attributes
    ----------
    backend:
        Registry name the record describes (``"bitset"``, ``"numpy"``, …).
    level_kernel:
        The backend implements the :class:`LevelKernel` protocol — one
        stacked tensor pass covers a whole unrolling level of handles.
    batch_simulate:
        The backend has a representation-specific ``simulate_batch`` /
        ``_extend_batch`` fast path (all current backends do; the base
        class provides a generic trie walk regardless).
    gpu_ready:
        The backend's level-kernel formulation is expressed as dense array
        gathers/reductions that could run on an accelerator without
        restructuring (a forward-looking flag — no GPU code ships here).

    >>> EngineCapabilities(backend="reference").level_kernel
    False
    """

    backend: str
    level_kernel: bool = False
    batch_simulate: bool = False
    gpu_ready: bool = False


@runtime_checkable
class LevelKernel(Protocol):
    """Whole-level tensor interface negotiated through declared capabilities.

    A level kernel answers the three bulk questions the counting layer asks
    once per unrolling level, each over *many* handles at once instead of
    one handle at a time:

    * :meth:`step_level` — forward images of a stack of handles under one
      symbol (the reachability cache's batched prefix materialisation);
    * :meth:`pre_level` — reverse images of a stack of handles under one
      symbol, optionally intersected with a restriction handle (the
      backward sampler's per-symbol predecessor fan);
    * :meth:`materialise_batch` — per-word prefix-handle chains for a
      multiset of words (standalone batched simulation keeping every
      intermediate level).

    Implementations must preserve the scalar path's observable contract
    exactly: ``step_level(handles, b)[i] == engine.step(handles[i], b)``
    (and likewise for ``pre``), with ``step_ops`` / ``pre_ops`` advancing
    by ``len(handles)`` per call — one increment per handle, the same
    accounting the scalar loop performs.  That is what lets kernel and
    scalar executions share the locked work-counter parity suite.
    """

    def step_level(self, handles: Sequence[object], symbol: Symbol) -> List[object]:
        """Forward images of every handle under ``symbol`` (one tensor pass)."""

    def pre_level(
        self,
        handles: Sequence[object],
        symbol: Symbol,
        restrict: Optional[object] = None,
    ) -> List[object]:
        """Reverse images of every handle under ``symbol``.

        ``restrict``, when given, is intersected into every result — the
        counting layer passes the previous level's live-state handle, so a
        whole level of ``predecessor_handle`` calls collapses into one
        stacked gather plus one vectorised AND.
        """

    def materialise_batch(
        self, words: Sequence[Word], upto: Optional[int] = None
    ) -> List[List[object]]:
        """Per-word prefix-handle chains (``chains[i][d]`` after ``d`` symbols).

        ``upto`` bounds the chain length (``None`` simulates each word in
        full).  Unlike :meth:`Engine.simulate_batch`, every intermediate
        handle is returned, which is what a reachability cache needs to
        populate its prefix table in one pass.
        """


class Engine(ABC):
    """Narrow simulation interface over opaque state-set handles.

    Subclasses fix the handle representation and implement the primitive
    set operations; everything else (word simulation, acceptance) is derived
    here.  Handles must be hashable and equality-consistent with the decoded
    frozensets.
    """

    #: Registry key of the backend (e.g. ``"reference"``, ``"bitset"``).
    name: str = "abstract"

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        self.step_ops = 0
        self.pre_ops = 0
        self.decode_ops = 0
        self.batch_calls = 0
        self.batch_words = 0
        self.batch_steps_saved = 0

    # ------------------------------------------------------------------
    # Primitive handles
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def initial(self) -> object:
        """Handle for ``{initial}``."""

    @property
    @abstractmethod
    def accepting(self) -> object:
        """Handle for the accepting state set ``F``."""

    @property
    @abstractmethod
    def empty(self) -> object:
        """Handle for the empty state set."""

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, states: Iterable[State]) -> object:
        """Handle for an arbitrary collection of states."""

    @abstractmethod
    def decode(self, handle: object) -> FrozenSet[State]:
        """The frozenset of states a handle denotes."""

    def singleton(self, state: State) -> object:
        """Handle for ``{state}``."""
        return self.encode((state,))

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    @abstractmethod
    def step(self, handle: object, symbol: Symbol) -> object:
        """Forward image: states reachable from ``handle`` on one ``symbol``."""

    @abstractmethod
    def step_all(self, handle: object) -> object:
        """Forward image under *any* alphabet symbol (one unrolling level)."""

    @abstractmethod
    def pre(self, handle: object, symbol: Symbol) -> object:
        """Reverse image: the paper's ``Pred(Q', b)`` for a state set ``Q'``."""

    @abstractmethod
    def intersect(self, first: object, second: object) -> object:
        """Handle for the intersection of two handles."""

    @abstractmethod
    def union(self, first: object, second: object) -> object:
        """Handle for the union of two handles."""

    @abstractmethod
    def contains(self, handle: object, state: State) -> bool:
        """Whether ``state`` belongs to the set ``handle`` denotes."""

    @abstractmethod
    def is_empty(self, handle: object) -> bool:
        """Whether the handle denotes the empty set."""

    @abstractmethod
    def intersects(self, first: object, second: object) -> bool:
        """Whether the two handles share at least one state."""

    @abstractmethod
    def count(self, handle: object) -> int:
        """Number of states in the set."""

    # ------------------------------------------------------------------
    # Derived word-level operations
    # ------------------------------------------------------------------
    def simulate(self, word: "str | Word") -> object:
        """Handle of states reachable from the initial state on ``word``."""
        current = self.initial
        for symbol in as_word(word):
            current = self.step(current, symbol)
            if self.is_empty(current):
                return current
        return current

    def accepts(self, word: "str | Word") -> bool:
        """Whether the automaton accepts ``word`` (engine-backed)."""
        return self.intersects(self.simulate(word), self.accepting)

    def reachable_states(self, word: "str | Word") -> FrozenSet[State]:
        """Frozenset counterpart of :meth:`simulate` (parity-test helper)."""
        return self.decode(self.simulate(word))

    # ------------------------------------------------------------------
    # Batched word-level operations
    # ------------------------------------------------------------------
    def _extend_batch(
        self, stack: List[object], word: Word, start: int
    ) -> object:
        """Extend the prefix-handle ``stack`` with ``word[start:]``.

        ``stack[d]`` holds the handle after the first ``d`` symbols of the
        word being simulated; the method appends one handle per performed
        step and stops early once the state set becomes empty (mirroring
        :meth:`simulate`).  Backends may override this with a representation
        -specific fast path, but must keep the step accounting identical.
        """
        current = stack[start]
        for position in range(start, len(word)):
            if self.is_empty(current):
                break
            current = self.step(current, word[position])
            stack.append(current)
        return current

    def simulate_batch(self, words: WordBatch) -> List[object]:
        """Handles of :meth:`simulate` for a whole multiset of words.

        The multiset is processed in sorted order so that consecutive words
        share their longest common prefix: the shared prefix is stepped
        exactly once and its intermediate handles are kept resident on a
        stack (a trie walk that never builds the trie).  Results come back
        in input order and each equals the corresponding per-word
        :meth:`simulate` handle; only the amount of stepping work differs,
        which the ``batch_steps_saved`` counter records.  ``words`` may
        also be a ``(count, length)`` matrix of positions in
        ``nfa.alphabet`` (see :data:`WordBatch`); this generic walk decodes
        its rows to symbol tuples first.

        >>> from repro.automata.nfa import NFA
        >>> nfa = NFA.build(
        ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
        ...     initial="s", accepting=["t"])
        >>> engine = create_engine(nfa, "bitset")
        >>> [sorted(engine.decode(h)) for h in engine.simulate_batch(["0", "01", "01"])]
        [['s'], ['t'], ['t']]
        >>> engine.batch_steps_saved  # shared "0" prefix + the duplicate "01"
        3
        """
        if isinstance(words, np.ndarray):
            normalized = position_words(self.nfa.alphabet, words)
        else:
            normalized = [
                word if type(word) is tuple else as_word(word) for word in words
            ]
        self.batch_calls += 1
        self.batch_words += len(normalized)
        results: List[object] = [self.initial] * len(normalized)
        order = sorted(enumerate(normalized), key=lambda pair: pair[1])
        stack: List[object] = [self.initial]
        previous: Word = ()
        saved = 0
        is_empty = self.is_empty
        extend = self._extend_batch
        for position, word in order:
            shared = 0
            limit = min(len(previous), len(word))
            while shared < limit and previous[shared] == word[shared]:
                shared += 1
            del stack[shared + 1 :]
            depth_before = len(stack)
            current = extend(stack, word, shared)
            depth = len(stack) - 1
            performed = depth + 1 - depth_before
            if is_empty(current):
                # A dead prefix: per-word simulation would have stopped at
                # the first empty handle (always the last stack entry).
                full_cost = min(len(word), depth)
            else:
                full_cost = len(word)
            saved += full_cost - performed
            results[position] = current
            previous = word if depth == len(word) else word[:depth]
        self.batch_steps_saved += saved
        return results

    def accepts_batch(self, words: WordBatch) -> List[bool]:
        """Vector of :meth:`accepts` answers, sharing prefixes across words.

        ``words`` is anything :meth:`simulate_batch` takes, including a
        position matrix.
        """
        accepting = self.accepting
        return [
            self.intersects(handle, accepting)
            for handle in self.simulate_batch(words)
        ]

    # ------------------------------------------------------------------
    # Capability negotiation
    # ------------------------------------------------------------------
    def capabilities(self) -> EngineCapabilities:
        """The frozen capability record this backend declared at registration.

        Backends registered without an explicit record get an all-default
        (scalar-only) one, so negotiation never needs a ``getattr`` probe:
        every engine answers, and absent capabilities read as ``False``.
        """
        return backend_capabilities(self.name)

    def level_kernel(self) -> Optional[LevelKernel]:
        """The backend's :class:`LevelKernel`, or ``None`` when undeclared.

        The contract ties this to :meth:`capabilities`: a backend whose
        record sets ``level_kernel`` must return a kernel here, and a
        backend without the capability must return ``None`` — callers
        negotiate through the record and then trust the kernel.
        """
        return None

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Snapshot of the engine-level work counters.

        ``step_ops`` / ``pre_ops`` / ``decode_ops`` count primitive set
        operations; ``batch_calls`` / ``batch_words`` count invocations of
        the batched word-level API and the words they covered, and
        ``batch_steps_saved`` counts simulation steps the prefix sharing
        avoided compared to per-word simulation.
        """
        return {
            "step_ops": self.step_ops,
            "pre_ops": self.pre_ops,
            "decode_ops": self.decode_ops,
            "batch_calls": self.batch_calls,
            "batch_words": self.batch_words,
            "batch_steps_saved": self.batch_steps_saved,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(states={self.nfa.num_states})"


class ReferenceEngine(Engine):
    """The always-available frozenset backend.

    Handles are plain ``FrozenSet[State]`` values and every operation
    delegates to the memoised successor/predecessor maps of :class:`NFA`,
    making this engine definitionally equivalent to the original pure-Python
    implementation.  It is the semantic baseline the parity suite compares
    other backends against.
    """

    name = "reference"

    def __init__(self, nfa: NFA) -> None:
        super().__init__(nfa)
        self._initial: FrozenSet[State] = frozenset({nfa.initial})
        self._accepting: FrozenSet[State] = frozenset(nfa.accepting)
        self._empty: FrozenSet[State] = frozenset()
        self._all_states: FrozenSet[State] = frozenset(nfa.states)

    @property
    def initial(self) -> FrozenSet[State]:
        """``{initial}`` as a frozenset handle."""
        return self._initial

    @property
    def accepting(self) -> FrozenSet[State]:
        """The accepting set ``F`` as a frozenset handle."""
        return self._accepting

    @property
    def empty(self) -> FrozenSet[State]:
        """The empty frozenset handle."""
        return self._empty

    def encode(self, states: Iterable[State]) -> FrozenSet[State]:
        """Freeze ``states`` into a handle, validating membership in ``Q``."""
        result = frozenset(states)
        if not result <= self._all_states:
            unknown = next(iter(result - self._all_states))
            raise AutomatonError(
                f"state {unknown!r} is not a state of the automaton"
            )
        return result

    def decode(self, handle: FrozenSet[State]) -> FrozenSet[State]:
        """Identity — reference handles already are frozensets."""
        self.decode_ops += 1
        return handle

    def step(self, handle: FrozenSet[State], symbol: Symbol) -> FrozenSet[State]:
        """Union of the memoised successor sets of every state in the handle."""
        self.step_ops += 1
        result: set = set()
        for state in handle:
            result.update(self.nfa.successors(state, symbol))
        return frozenset(result)

    def step_all(self, handle: FrozenSet[State]) -> FrozenSet[State]:
        """Forward image under every alphabet symbol at once."""
        self.step_ops += 1
        result: set = set()
        for state in handle:
            for symbol in self.nfa.alphabet:
                result.update(self.nfa.successors(state, symbol))
        return frozenset(result)

    def pre(self, handle: FrozenSet[State], symbol: Symbol) -> FrozenSet[State]:
        """Union of the memoised predecessor sets (the paper's ``Pred``)."""
        self.pre_ops += 1
        result: set = set()
        for state in handle:
            result.update(self.nfa.predecessors(state, symbol))
        return frozenset(result)

    def intersect(
        self, first: FrozenSet[State], second: FrozenSet[State]
    ) -> FrozenSet[State]:
        """Set intersection of two handles."""
        return first & second

    def union(
        self, first: FrozenSet[State], second: FrozenSet[State]
    ) -> FrozenSet[State]:
        """Set union of two handles."""
        return first | second

    def contains(self, handle: FrozenSet[State], state: State) -> bool:
        """Frozenset membership test (unknown states are never contained)."""
        return state in handle

    def is_empty(self, handle: FrozenSet[State]) -> bool:
        """Whether the frozenset is empty."""
        return not handle

    def intersects(self, first: FrozenSet[State], second: FrozenSet[State]) -> bool:
        """Whether the two frozensets share a state."""
        return not first.isdisjoint(second)

    def count(self, handle: FrozenSet[State]) -> int:
        """Cardinality of the frozenset."""
        return len(handle)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EngineFactory = Callable[[NFA], Engine]

ENGINE_REGISTRY: Dict[str, EngineFactory] = {
    ReferenceEngine.name: ReferenceEngine,
}

#: Declared capability records per registered backend, filled by
#: :func:`register_engine`.  The reference backend is the scalar baseline:
#: no level kernel, generic trie-walk batching only.
BACKEND_CAPABILITIES: Dict[str, EngineCapabilities] = {
    ReferenceEngine.name: EngineCapabilities(backend=ReferenceEngine.name),
}


def register_engine(
    name: str,
    factory: EngineFactory,
    capabilities: Optional[EngineCapabilities] = None,
) -> None:
    """Add a backend to the registry, with its declared capability record.

    ``capabilities`` defaults to an all-scalar record for ``name``; a
    record declared for a different backend name is rejected so the table
    can never lie about which backend a record describes.
    """
    if capabilities is None:
        capabilities = EngineCapabilities(backend=name)
    elif capabilities.backend != name:
        raise ParameterError(
            f"capability record is declared for backend "
            f"{capabilities.backend!r}, not {name!r}"
        )
    ENGINE_REGISTRY[name] = factory
    BACKEND_CAPABILITIES[name] = capabilities


def backend_capabilities(name: str) -> EngineCapabilities:
    """The declared :class:`EngineCapabilities` of one registered backend.

    >>> backend_capabilities("reference").level_kernel
    False
    >>> backend_capabilities("bitset").batch_simulate
    True
    """
    record = BACKEND_CAPABILITIES.get(name)
    if record is None:
        raise ParameterError(
            f"unknown simulation backend {name!r}; "
            f"available: {list(available_backends())}"
        )
    return record


def available_backends(with_capabilities: bool = False):
    """Selectable simulation backends, optionally with capability metadata.

    By default: the sorted tuple of backend names, including the
    ``"auto"`` pseudo-backend, which :func:`resolve_backend` maps to a
    concrete registered backend per automaton.  With
    ``with_capabilities=True``: a name-keyed mapping of
    :class:`EngineCapabilities` records for the concrete backends
    (``"auto"`` has no record of its own — it resolves to one of these).

    >>> "auto" in available_backends()
    True
    >>> available_backends(with_capabilities=True)["reference"].level_kernel
    False
    """
    if with_capabilities:
        return {name: BACKEND_CAPABILITIES[name] for name in sorted(ENGINE_REGISTRY)}
    return tuple(sorted([*ENGINE_REGISTRY, AUTO_BACKEND]))


def resolve_backend(nfa: NFA, backend: Optional[str]) -> str:
    """The concrete registry name a backend request denotes for ``nfa``.

    ``None`` selects :data:`DEFAULT_BACKEND`.  :data:`AUTO_BACKEND`
    resolves through the declared capability table: above
    :data:`AUTO_BLOCK_THRESHOLD` states it picks the first registered
    backend (in sorted name order) whose :class:`EngineCapabilities`
    declare ``level_kernel`` — currently the vectorised ``"numpy"`` block
    engine — and falls back to :data:`DEFAULT_BACKEND` below the threshold
    or when no kernel-capable backend is registered (e.g. NumPy
    unavailable).  Resolution happens before registry keying, so
    ``"auto"`` shares engine instances with the concrete backend it
    resolves to.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
    >>> resolve_backend(nfa, None)
    'bitset'
    >>> resolve_backend(nfa, "auto")
    'bitset'
    """
    key = backend if backend is not None else DEFAULT_BACKEND
    if key == AUTO_BACKEND:
        if nfa.num_states > AUTO_BLOCK_THRESHOLD:
            for name in sorted(ENGINE_REGISTRY):
                if BACKEND_CAPABILITIES[name].level_kernel:
                    return name
        return DEFAULT_BACKEND
    return key


def create_engine(nfa: NFA, backend: Optional[str] = None) -> Engine:
    """Instantiate a *fresh* simulation engine for ``nfa``.

    ``backend`` is a registry name (or ``"auto"``, resolved per automaton by
    :func:`resolve_backend`); ``None`` selects :data:`DEFAULT_BACKEND`.
    Construction builds the backend's lookup tables from scratch — callers
    on a hot path should prefer :func:`acquire_engine`, which memoises
    engines per ``(nfa, backend)`` in the shared :class:`EngineRegistry`.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
    >>> create_engine(nfa).name
    'bitset'
    >>> create_engine(nfa, "reference").name
    'reference'
    >>> create_engine(nfa, "auto").name  # 1 state: below the block threshold
    'bitset'
    """
    key = resolve_backend(nfa, backend)
    try:
        factory = ENGINE_REGISTRY[key]
    except KeyError:
        raise ParameterError(
            f"unknown simulation backend {key!r}; available: {list(available_backends())}"
        ) from None
    return factory(nfa)


# ----------------------------------------------------------------------
# Shared engine instances
# ----------------------------------------------------------------------
class EngineRegistry:
    """LRU memoisation of engine instances per ``(nfa, backend)``.

    :class:`~repro.automata.nfa.NFA` values are immutable and hashable on
    structural content, so two automata built independently from the same
    transitions share one registry slot — a second
    :class:`~repro.counting.fpras.NFACounter`, reachability cache or union
    estimator over the same automaton reuses the already-built transition
    tables instead of reconstructing them.  Engines are immutable apart
    from their diagnostic counters and decode cache, which makes sharing
    observationally safe: results never depend on who else used the engine.

    The registry is bounded (``max_entries``, least-recently-used
    eviction) so long-running processes touching many automata cannot
    accumulate unbounded table memory; per-engine decode memos are bounded
    separately by the backends (see ``BitsetEngine``).

    Registry operations themselves are guarded by a lock, so concurrent
    acquisitions cannot corrupt the LRU structure (a miss builds the engine
    under the lock, serialising concurrent builds).  The *engines* handed
    out are shared mutable objects whose diagnostic counters
    (``step_ops``, ``batch_*``, the decode memo) are not synchronised:
    concurrent use from several threads never changes simulation results
    (transition tables are immutable) but can skew per-run counter deltas.
    The codebase drives engines from one thread at a time; callers that
    need isolated diagnostics under concurrency should acquire private
    engines (``use_cache=False``).

    >>> from repro.automata.nfa import NFA
    >>> registry = EngineRegistry(max_entries=8)
    >>> nfa = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
    >>> engine = registry.get(nfa, "bitset")
    >>> registry.get(nfa, "bitset") is engine   # memoised
    True
    >>> twin = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
    >>> registry.get(twin, "bitset") is engine  # keyed by value, not identity
    True
    >>> (registry.hits, registry.misses)
    (2, 1)
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ParameterError("EngineRegistry needs room for at least one engine")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[NFA, str], Engine]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def acquire(self, nfa: NFA, backend: Optional[str] = None) -> Tuple[Engine, bool]:
        """The shared engine for ``(nfa, backend)`` plus whether it was cached.

        The lookup, hit accounting and LRU maintenance happen atomically,
        so the hit flag is reliable even with concurrent callers.  Backend
        names are resolved first (``None`` → default, ``"auto"`` → concrete
        backend for this automaton's size), so an ``"auto"`` acquisition
        shares the slot of the backend it resolves to.
        """
        key = (nfa, resolve_backend(nfa, backend))
        with self._lock:
            engine = self._entries.get(key)
            if engine is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return engine, True
            self.misses += 1
            engine = create_engine(nfa, key[1])
            self._entries[key] = engine
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return engine, False

    def get(self, nfa: NFA, backend: Optional[str] = None) -> Engine:
        """The shared engine for ``(nfa, backend)``, building it on first use."""
        return self.acquire(nfa, backend)[0]

    def clear(self) -> None:
        """Drop every memoised engine (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        """Hit/miss/size diagnostics of the registry."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[NFA, str]) -> bool:
        with self._lock:
            return key in self._entries


#: The process-wide registry used by :func:`acquire_engine` by default.
SHARED_ENGINE_REGISTRY = EngineRegistry()


def acquire_engine(
    nfa: NFA,
    backend: Optional[str] = None,
    use_cache: bool = True,
    registry: Optional[EngineRegistry] = None,
) -> Tuple[Engine, bool]:
    """An engine for ``nfa`` plus whether it came from the shared registry.

    This is the acquisition path every component uses: with ``use_cache``
    (the default) the engine is memoised in ``registry`` (defaulting to
    :data:`SHARED_ENGINE_REGISTRY`); ``use_cache=False`` — the CLI's
    ``--no-engine-cache`` escape hatch — always builds a private engine,
    which is useful for isolated timing and for ruling the cache out when
    debugging.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build([("a", "0", "a")], initial="a", accepting=["a"])
    >>> engine, from_cache = acquire_engine(nfa, "reference", registry=EngineRegistry())
    >>> from_cache
    False
    >>> acquire_engine(nfa, use_cache=False)[1]
    False
    """
    if not use_cache:
        return create_engine(nfa, backend), False
    target = registry if registry is not None else SHARED_ENGINE_REGISTRY
    return target.acquire(nfa, backend)


# Imports for the side effect of registering the bitset and numpy block
# backends.  Placed at the bottom so both modules can import the Engine base
# class above.
from repro.automata import bitset as _bitset  # noqa: E402,F401  (registration)
from repro.automata import block as _block  # noqa: E402,F401  (registration)
