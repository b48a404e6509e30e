"""Unit tests for the regex parser and compiler."""

from __future__ import annotations

import pytest

from repro.automata.regex import (
    Alternation,
    AnySymbol,
    Concat,
    Epsilon,
    Literal,
    Maybe,
    Plus,
    Repeat,
    Star,
    SymbolClass,
    compile_regex,
    parse_regex,
)
from repro.errors import RegexSyntaxError


class TestParser:
    def test_single_literal(self):
        assert parse_regex("a") == Literal("a")

    def test_concatenation(self):
        node = parse_regex("ab")
        assert isinstance(node, Concat)
        assert node.parts == (Literal("a"), Literal("b"))

    def test_alternation(self):
        node = parse_regex("a|b")
        assert isinstance(node, Alternation)
        assert node.options == (Literal("a"), Literal("b"))

    def test_alternation_binds_looser_than_concat(self):
        node = parse_regex("ab|c")
        assert isinstance(node, Alternation)
        assert isinstance(node.options[0], Concat)

    def test_star(self):
        assert parse_regex("a*") == Star(Literal("a"))

    def test_plus_and_maybe(self):
        assert parse_regex("a+") == Plus(Literal("a"))
        assert parse_regex("a?") == Maybe(Literal("a"))

    def test_repetition_exact(self):
        assert parse_regex("a{3}") == Repeat(Literal("a"), 3, 3)

    def test_repetition_range(self):
        assert parse_regex("a{2,5}") == Repeat(Literal("a"), 2, 5)

    def test_grouping(self):
        node = parse_regex("(ab)*")
        assert isinstance(node, Star)
        assert isinstance(node.child, Concat)

    def test_character_class(self):
        assert parse_regex("[abc]") == SymbolClass(("a", "b", "c"))

    def test_character_class_deduplicates(self):
        assert parse_regex("[aab]") == SymbolClass(("a", "b"))

    def test_any_symbol(self):
        assert parse_regex(".") == AnySymbol()

    def test_escape(self):
        assert parse_regex(r"\*") == Literal("*")

    def test_empty_pattern_is_epsilon(self):
        assert parse_regex("") == Epsilon()

    def test_bracketed_symbol(self):
        assert parse_regex("<worksAt>") == Literal("worksAt")

    def test_bracketed_symbols_concatenate(self):
        node = parse_regex("<a><b>")
        assert node == Concat((Literal("a"), Literal("b")))

    @pytest.mark.parametrize(
        "pattern",
        ["(a", "a)", "a{2", "a{3,1}", "[", "[]", "a**b(", "<", "<>", "\\", "*a", "a{x}"],
    )
    def test_syntax_errors(self, pattern):
        with pytest.raises(RegexSyntaxError):
            parse_regex(pattern)

    def test_character_range(self):
        assert parse_regex("[a-d]") == SymbolClass(("a", "b", "c", "d"))

    def test_character_range_mixes_with_plain_members(self):
        assert parse_regex("[a-c0-1x]") == SymbolClass(("a", "b", "c", "0", "1", "x"))

    def test_dash_is_literal_at_class_edges(self):
        assert parse_regex("[a-]") == SymbolClass(("a", "-"))
        assert parse_regex("[-a]") == SymbolClass(("-", "a"))

    def test_negated_class(self):
        assert parse_regex("[^ab]") == SymbolClass(("a", "b"), negated=True)

    def test_negated_class_with_range(self):
        assert parse_regex("[^a-c]") == SymbolClass(("a", "b", "c"), negated=True)

    def test_caret_is_literal_when_not_first(self):
        assert parse_regex("[a^]") == SymbolClass(("a", "^"))

    def test_escaped_caret_first_is_literal(self):
        assert parse_regex(r"[\^a]") == SymbolClass(("^", "a"))

    @pytest.mark.parametrize(
        "pattern",
        ["[z-a]", "[5-2]", "[^]", "[a-", "[a-\\", "[^", "[<a>-<b>]"],
    )
    def test_malformed_range_and_negation_errors(self, pattern):
        with pytest.raises(RegexSyntaxError):
            parse_regex(pattern)


class TestCompile:
    @pytest.mark.parametrize(
        "pattern, accepted, rejected",
        [
            ("01", ["01"], ["0", "1", "10", "011"]),
            ("0*1", ["1", "01", "0001"], ["", "0", "10"]),
            ("(0|1)*11", ["11", "011", "1111"], ["", "1", "10"]),
            ("0+", ["0", "00", "000"], ["", "1", "01"]),
            ("0?1", ["1", "01"], ["", "0", "001"]),
            ("(01){2}", ["0101"], ["01", "010101"]),
            ("(01){1,2}", ["01", "0101"], ["", "010101"]),
            ("[01]1", ["01", "11"], ["10", "1"]),
            (".1", ["01", "11"], ["10", "1"]),
            ("", [""], ["0", "1"]),
        ],
    )
    def test_binary_patterns(self, pattern, accepted, rejected):
        nfa = compile_regex(pattern, alphabet=("0", "1"))
        for word in accepted:
            assert nfa.accepts(word), f"{pattern!r} should accept {word!r}"
        for word in rejected:
            assert not nfa.accepts(word), f"{pattern!r} should reject {word!r}"

    def test_alphabet_inferred_from_literals(self):
        nfa = compile_regex("ab*")
        assert set(nfa.alphabet) == {"a", "b"}

    def test_alphabet_defaults_to_binary_for_literal_free_patterns(self):
        nfa = compile_regex(".*")
        assert set(nfa.alphabet) == {"0", "1"}

    def test_explicit_alphabet_controls_dot(self):
        nfa = compile_regex(".", alphabet=("x", "y", "z"))
        for symbol in ("x", "y", "z"):
            assert nfa.accepts((symbol,))

    def test_multicharacter_labels(self):
        nfa = compile_regex("(<knows>)*<worksAt>", alphabet=("knows", "worksAt"))
        assert nfa.accepts(("worksAt",))
        assert nfa.accepts(("knows", "knows", "worksAt"))
        assert not nfa.accepts(("worksAt", "knows"))

    def test_compiled_nfa_is_epsilon_free_and_pruned(self):
        nfa = compile_regex("(0|1)*01")
        # Every state is reachable from the initial state.
        assert nfa.forward_reachable() == nfa.states

    def test_star_accepts_empty_word(self):
        nfa = compile_regex("(01)*")
        assert nfa.accepts("")
        assert nfa.accepts("0101")

    def test_nested_structure(self):
        nfa = compile_regex("((0|1)0){2}")
        assert nfa.accepts("0010")
        assert nfa.accepts("1000")
        assert not nfa.accepts("0001")

    def test_slice_counts_match_enumeration(self):
        # |L_n| of (0|1)*11 equals the number of binary words ending in 11.
        nfa = compile_regex("(0|1)*11")
        assert len(nfa.language_slice(5)) == 2**3

    def test_repeat_zero_lower_bound(self):
        nfa = compile_regex("a{0,2}", alphabet=("a",))
        assert nfa.accepts("")
        assert nfa.accepts("a")
        assert nfa.accepts("aa")
        assert not nfa.accepts("aaa")

    def test_range_class_compiles(self):
        nfa = compile_regex("[a-c]x", alphabet=("a", "b", "c", "d", "x"))
        for symbol in ("a", "b", "c"):
            assert nfa.accepts((symbol, "x"))
        assert not nfa.accepts(("d", "x"))

    def test_negated_class_complements_explicit_alphabet(self):
        nfa = compile_regex("[^ab]c", alphabet=("a", "b", "c", "d"))
        assert nfa.accepts(("c", "c"))
        assert nfa.accepts(("d", "c"))
        assert not nfa.accepts(("a", "c"))
        assert not nfa.accepts(("b", "c"))

    def test_negated_class_quoted_string_shape(self):
        nfa = compile_regex('"[^"]*"', alphabet=('"', "x", "y"))
        assert nfa.accepts(('"', "x", "y", '"'))
        assert nfa.accepts(('"', '"'))
        assert not nfa.accepts(('"', '"', '"'))

    def test_negated_class_requires_explicit_alphabet(self):
        with pytest.raises(RegexSyntaxError):
            compile_regex("[^ab]")

    def test_negated_class_must_leave_some_symbol(self):
        with pytest.raises(RegexSyntaxError):
            compile_regex("[^abc]", alphabet=("a", "b", "c"))

    @pytest.mark.parametrize("backend_blind_pattern, alphabet, length", [
        ("[a-c]+", ("a", "b", "c", "d"), 4),
        ("[^a]([a-d])*", ("a", "b", "c", "d"), 3),
        ("[0-9]{1,3}", tuple("0123456789"), 3),
    ])
    def test_range_and_negation_backend_parity(
        self, backend_blind_pattern, alphabet, length
    ):
        # The three simulation backends must agree bit-for-bit on automata
        # compiled from range/negation patterns (same estimate from the
        # same seed, same exact count).
        from repro.automata.engine import available_backends
        from repro.counting.api import count
        from repro.counting.policy import ExecutionPolicy

        nfa = compile_regex(backend_blind_pattern, alphabet=alphabet)
        backends = [b for b in available_backends() if b != "auto"]
        exacts = set()
        estimates = set()
        for backend in backends:
            policy = ExecutionPolicy(backend=backend)
            exacts.add(count(nfa, length, method="exact", policy=policy).estimate)
            estimates.add(
                count(
                    nfa, length, method="fpras", epsilon=0.5, delta=0.2,
                    seed=7, policy=policy,
                ).estimate
            )
        assert len(exacts) == 1
        assert len(estimates) == 1
