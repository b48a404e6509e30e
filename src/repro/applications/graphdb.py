"""Regular path queries over an edge-labeled graph database.

This is the application the paper spells out in most detail: a graph
database is an edge-labeled graph; a regular path query ``(u, R, v)`` asks
about the set of paths from node ``u`` to node ``v`` (bounded in length by
``n``) whose label sequence matches the regular expression ``R``.  Counting
the answers reduces to #NFA for the product of

* the database viewed as an NFA (nodes are states, ``u`` initial, ``v``
  accepting), and
* the NFA the regex compiles to,

and the reduced instance is linear in the database and the query — so the
cost of answering is dominated by the #NFA algorithm, which is exactly the
paper's motivation for a faster FPRAS.

Two counting semantics are provided:

* ``paths`` — distinct *paths* (edge sequences).  Words of the product
  automaton are made to correspond to paths bijectively by using one symbol
  per database edge (the regex, written over labels, is lifted through the
  label homomorphism during the product construction).
* ``labels`` — distinct *label sequences*, i.e. words of the plain product
  automaton over the label alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.automata.nfa import NFA, State, Symbol, Transition, Word
from repro.automata.regex import compile_regex
from repro.counting.api import CountReport, CountRequest, count as unified_count
from repro.counting.fpras import CountResult
from repro.counting.params import ParameterScale
from repro.counting.policy import ExecutionPolicy
from repro.counting.uniform import UniformWordSampler
from repro.errors import ReductionError

Node = str
Edge = Tuple[Node, Symbol, Node]


@dataclass
class GraphDatabase:
    """An edge-labeled directed multigraph (the data model of RPQs)."""

    edges: List[Edge] = field(default_factory=list)

    def add_edge(self, source: Node, label: Symbol, target: Node) -> None:
        """Add a labeled edge ``source -label-> target``."""
        self.edges.append((str(source), str(label), str(target)))

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "GraphDatabase":
        database = cls()
        for source, label, target in edges:
            database.add_edge(source, label, target)
        return database

    @property
    def nodes(self) -> FrozenSet[Node]:
        found: Set[Node] = set()
        for source, _label, target in self.edges:
            found.add(source)
            found.add(target)
        return frozenset(found)

    @property
    def labels(self) -> Tuple[Symbol, ...]:
        return tuple(sorted({label for _s, label, _t in self.edges}))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_edges(self, node: Node) -> List[Edge]:
        return [edge for edge in self.edges if edge[0] == node]

    def as_nfa(self, source: Node, target: Node) -> NFA:
        """The database as an NFA over the label alphabet (``u`` to ``v``)."""
        if source not in self.nodes or target not in self.nodes:
            raise ReductionError("query endpoints must be nodes of the database")
        return NFA(
            states=self.nodes,
            initial=source,
            transitions=frozenset(self.edges),
            accepting=frozenset({target}),
            alphabet=self.labels,
        )


@dataclass(frozen=True)
class RegularPathQuery:
    """A regular path query ``(source, pattern, target)`` with a length bound.

    ``pattern`` is a regular expression over the database's edge labels;
    ``max_length`` bounds the path length (the ``n`` of the #NFA instance).
    ``exact_length`` switches between "paths of length exactly n" and
    "paths of length at most n" (the paper's phrasing — bounded by ``n``).
    """

    source: Node
    pattern: str
    target: Node
    max_length: int
    exact_length: bool = False


#: Padding symbol used to turn "length at most n" into a single length-n slice.
PADDING_SYMBOL: Symbol = "#pad"


class RPQCounter:
    """Counts (and samples) answers to a regular path query via #NFA.

    Typical use::

        db = GraphDatabase.from_edges([...])
        query = RegularPathQuery("alice", "(knows)*(worksAt)", "acme", max_length=6)
        counter = RPQCounter(db, query)
        print(counter.count_exact())          # ground truth (small instances)
        print(counter.count_fpras(epsilon=0.3).estimate)
    """

    def __init__(
        self,
        database: GraphDatabase,
        query: RegularPathQuery,
        semantics: str = "paths",
    ) -> None:
        if semantics not in ("paths", "labels"):
            raise ReductionError(f"unknown counting semantics {semantics!r}")
        self.database = database
        self.query = query
        self.semantics = semantics
        self._product: Optional[NFA] = None
        self._edge_symbols: Dict[Symbol, Edge] = {}

    # ------------------------------------------------------------------
    # Reduction to #NFA
    # ------------------------------------------------------------------
    def product_automaton(self) -> NFA:
        """The #NFA instance for the query (built lazily, then cached)."""
        if self._product is None:
            self._product = self._build_product()
        return self._product

    def _build_product(self) -> NFA:
        query = self.query
        labels = self.database.labels
        if not labels:
            raise ReductionError("the database has no edges")
        regex_nfa = compile_regex(query.pattern, alphabet=labels)

        transitions: Set[Transition] = set()
        states: Set[State] = set()
        initial: State = (query.source, regex_nfa.initial)
        states.add(initial)
        frontier: List[State] = [initial]
        explored: Set[State] = {initial}
        while frontier:
            node, regex_state = frontier.pop()
            for edge_index, (edge_source, label, edge_target) in enumerate(
                self.database.edges
            ):
                if edge_source != node:
                    continue
                for regex_target in regex_nfa.successors(regex_state, label):
                    symbol = self._symbol_for_edge(edge_index, label)
                    target_state = (edge_target, regex_target)
                    transitions.add(((node, regex_state), symbol, target_state))
                    states.add(target_state)
                    if target_state not in explored:
                        explored.add(target_state)
                        frontier.append(target_state)

        accepting = {
            state
            for state in states
            if state[0] == query.target and state[1] in regex_nfa.accepting
        }
        alphabet: Tuple[Symbol, ...] = self._alphabet()
        product = NFA(
            states=frozenset(states),
            initial=initial,
            transitions=frozenset(transitions),
            accepting=frozenset(accepting),
            alphabet=alphabet,
        )
        if not query.exact_length:
            product = self._add_padding(product)
        return product

    def _symbol_for_edge(self, edge_index: int, label: Symbol) -> Symbol:
        if self.semantics == "labels":
            return label
        symbol = f"e{edge_index}:{label}"
        self._edge_symbols[symbol] = self.database.edges[edge_index]
        return symbol

    def _alphabet(self) -> Tuple[Symbol, ...]:
        if self.semantics == "labels":
            return self.database.labels
        return tuple(
            f"e{index}:{label}"
            for index, (_s, label, _t) in enumerate(self.database.edges)
        )

    def _add_padding(self, product: NFA) -> NFA:
        """Turn "length <= n" counting into a single slice at exactly n.

        Every accepted word ``w`` with ``|w| <= n`` corresponds bijectively
        to the padded word ``w · pad^{n - |w|}``, so the padded automaton's
        slice at ``n`` has exactly the bounded-length answer count.
        """
        pad_state: State = ("pad", "sink")
        transitions: Set[Transition] = set(product.transitions)
        for state in product.accepting:
            transitions.add((state, PADDING_SYMBOL, pad_state))
        transitions.add((pad_state, PADDING_SYMBOL, pad_state))
        return NFA(
            states=product.states | {pad_state},
            initial=product.initial,
            transitions=frozenset(transitions),
            accepting=product.accepting | {pad_state},
            alphabet=product.alphabet + (PADDING_SYMBOL,),
        )

    # ------------------------------------------------------------------
    # Counting and sampling
    # ------------------------------------------------------------------
    def count_report(
        self,
        method: str = "fpras",
        epsilon: float = 0.5,
        delta: float = 0.1,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        use_engine_cache: bool = True,
        **options: object,
    ) -> CountReport:
        """Count the query answers with any registered counting method.

        This is the unified-façade entry point: ``method`` is a name from
        :func:`repro.counting.api.available_methods` and extra keyword
        arguments are per-method options (``scale``, ``num_samples``, …).
        """
        return unified_count(
            self.product_automaton(),
            self.query.max_length,
            method=method,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            policy=ExecutionPolicy(backend=backend, use_engine_cache=use_engine_cache),
            **options,
        )

    def count_exact(self) -> int:
        """Exact number of query answers (small instances only)."""
        return self.count_report(method="exact").raw

    def count_fpras(
        self,
        epsilon: float = 0.5,
        delta: float = 0.1,
        seed: Optional[int] = None,
        scale: Optional[ParameterScale] = None,
    ) -> CountResult:
        """Approximate the number of query answers with the paper's FPRAS.

        Legacy shim over :meth:`count_report`; returns the raw
        :class:`CountResult` (estimates and RNG stream are bit-identical).
        """
        return self.count_report(
            method="fpras", epsilon=epsilon, delta=delta, seed=seed, scale=scale
        ).raw

    def sample_answers(
        self,
        count: int,
        epsilon: float = 0.5,
        delta: float = 0.1,
        seed: Optional[int] = None,
    ) -> List[List[Edge]]:
        """Draw (almost) uniform answers; each answer is returned as an edge path.

        Only meaningful under the ``paths`` semantics (label-sequence answers
        are returned as lists of pseudo-edges carrying just the label).
        """
        request = CountRequest(method="fpras", epsilon=epsilon, delta=delta, seed=seed)
        sampler = UniformWordSampler.from_request(
            self.product_automaton(), self.query.max_length, request
        )
        sampler.prepare()
        answers: List[List[Edge]] = []
        for _ in range(count):
            word = sampler.sample()
            answers.append(self._decode_word(word))
        return answers

    def _decode_word(self, word: Word) -> List[Edge]:
        path: List[Edge] = []
        for symbol in word:
            if symbol == PADDING_SYMBOL:
                break
            if self.semantics == "paths":
                edge = self._edge_symbols.get(symbol)
                if edge is None:
                    index = int(symbol.split(":", 1)[0][1:])
                    edge = self.database.edges[index]
                path.append(edge)
            else:
                path.append(("?", symbol, "?"))
        return path

    # ------------------------------------------------------------------
    def reduction_size(self) -> Dict[str, int]:
        """Size of the reduced #NFA instance (for the linear-size claim)."""
        product = self.product_automaton()
        return {
            "database_nodes": len(self.database.nodes),
            "database_edges": self.database.num_edges,
            "product_states": product.num_states,
            "product_transitions": product.num_transitions,
            "length_bound": self.query.max_length,
        }
