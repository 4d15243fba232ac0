import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    atom_bounds,
    database_from_pairs,
    format_instance,
    naive_parse_degree,
    naive_parse_ground_atom,
    naive_parse_many,
    random_degree,
    random_existential_program,
    random_instance,
)
from mvdatalog import core, parser
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import ArityError, Atom, DomainError, FuzzyDatabase, Instance, LabelledNull, atom
from mvdatalog.engine import Engine
from mvdatalog.termination import is_weakly_acyclic_ve
from mvdatalog.parser import (
    NonGroundQuery,
    ParseError,
    SafetyError,
    parse,
    parse_ground_atom,
    parse_degree,
    parse_many,
)

F = Fraction


class TestFacts:
    def test_degree_fact(self):
        _, db = parse("0.8 :: label(i1, whale).")
        assert db.degree(atom("label", "i1", "whale")) == F(4, 5)

    def test_bare_fact_is_degree_one(self):
        _, db = parse("company(acme).")
        assert db.degree(atom("company", "acme")) == 1

    def test_fraction_degree(self):
        _, db = parse("7/10 :: polar(i1).")
        assert db.degree(atom("polar", "i1")) == F(7, 10)

    def test_decimal_is_exact(self):
        _, db = parse("0.1 :: p(a).")
        assert db.degree(atom("p", "a")) == F(1, 10)

    def test_zero_ary_fact(self):
        _, db = parse("raining.")
        assert db.degree(Atom("raining")) == 1

    def test_integer_constant_argument(self):
        _, db = parse("age(amy, 41).")
        assert db.degree(atom("age", "amy", "41")) == 1


class TestRules:
    def test_plain_rule(self):
        prog, _ = parse("orca(X) :- label(X, whale), polar(X).")
        (r,) = prog.rules
        assert str(r) == "orca(X) :- label(X, whale), polar(X)"
        assert r.existential_vars == frozenset()

    def test_existential_rule(self):
        prog, _ = parse("keyPerson(Y, X) :- company(X).")
        (r,) = prog.rules
        assert r.existential_vars == frozenset({"Y"})

    def test_strict_mode_rejects_loose_head_vars(self):
        with pytest.raises(SafetyError):
            parse("keyPerson(Y, X) :- company(X).", strict=True)

    def test_strict_mode_accepts_safe_rules(self):
        prog, _ = parse("orca(X) :- polar(X).", strict=True)
        assert len(prog.rules) == 1

    def test_comments_ignored(self):
        prog, db = parse("% a comment\np(a). % trailing\n% another\nq(X) :- p(X).\n")
        assert len(prog.rules) == 1 and len(db) == 1


class TestErrors:
    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse("p(a)\nq(b).")
        assert err.value.line == 2 and err.value.column >= 1

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("p(a) & q(b).")

    @pytest.mark.parametrize("text", ["0 :: p(a).", "0/5 :: p(a).", "1.5 :: p(a)."])
    def test_degree_out_of_range(self, text):
        with pytest.raises(DomainError):
            parse(text)

    def test_conflicting_duplicate_fact(self):
        with pytest.raises(DomainError):
            parse("0.5 :: p(a).\n0.6 :: p(a).")

    def test_consistent_duplicate_is_fine(self):
        _, db = parse("0.5 :: p(a).\n1/2 :: p(a).")
        assert db.degree(atom("p", "a")) == F(1, 2)

    def test_inconsistent_arity(self):
        with pytest.raises(ArityError):
            parse("p(a).\np(a, b).")

    def test_arity_mismatch_between_rule_and_fact(self):
        with pytest.raises(ArityError):
            parse("p(a).\nq(X) :- p(X, Y).")

    def test_non_ground_fact(self):
        with pytest.raises(ParseError):
            parse("p(X).")

    def test_rule_without_body(self):
        with pytest.raises(ParseError):
            parse("p(a) :- .")

    @pytest.mark.parametrize("text, token", [("1/00 :: p(a).", "00"), ("3/000 :: p(a).", "000")])
    def test_zero_denominator_written_with_several_zeros(self, text, token):
        with pytest.raises(ParseError) as err:
            parse(text)
        found = (err.value.message, err.value.line, err.value.column, err.value.token)
        assert found == ("zero denominator", 1, 3, token)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integer strings of any length"
    )
    @pytest.mark.parametrize(
        "text, column",
        [("1/" + "1" * 5000 + " :: p(a).", 3), ("0." + "1" * 5000 + " :: p(a).", 1)],
        ids=["fraction", "decimal"],
    )
    def test_degree_with_too_many_digits(self, text, column):
        with pytest.raises(ParseError) as err:
            parse(text)
        found = (err.value.message, err.value.line, err.value.column, err.value.token)
        assert found == ("too many digits in degree", 1, column, text[column - 1 : text.index(" ")])

    @pytest.mark.parametrize(
        "text, column, token",
        [
            ("\u0660.\u0665 :: p(a).", 1, "\u0660"),  # Arabic-Indic 0.5 as a degree
            ("p(\u0663).", 3, "\u0663"),  # Arabic-Indic 3 as a term
            ("p(a).\nq(1\u00b2).", 4, "\u00b2"),  # a superscript two, which str.isdigit accepts
        ],
        ids=["degree", "term", "superscript"],
    )
    def test_number_is_ascii_digits(self, text, column, token):
        with pytest.raises(ParseError) as err:
            parse(text)
        found = (err.value.message, err.value.column, err.value.token)
        assert found == ("unexpected character", column, token)

    def test_degree_argument_is_ascii_digits(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_degree("\u0660.\u0665")


class TestDegreeValidation:
    def test_each_fact_degree_validated_once(self, monkeypatch):
        calls = []
        as_degree = core.as_degree

        def counting(value, *, positive=False):
            calls.append(value)
            return as_degree(value, positive=positive)

        monkeypatch.setattr(core, "as_degree", counting)
        monkeypatch.setattr(parser, "as_degree", counting)
        parse("0.5 :: p(a).\n1/3 :: q(b).\nr(c).\n")
        assert calls == [F(1, 2), F(1, 3), F(1)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p(a).\n2 :: q(b).\nr(X).", "degree 2 outside [0, 1]"),
            ("0 :: p(a).\n2 :: q(b).", "degree must be strictly positive"),
        ],
        ids=["above-one", "zero"],
    )
    def test_first_bad_degree_wins_over_later_statements(self, text, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            parse(text)

    @pytest.mark.parametrize(
        "fact, degree, message",
        [
            (atom("p", "X"), F(1, 2), "not ground"),
            (Atom("p", (LabelledNull(1),)), F(1, 2), "labelled null"),
            (atom("p", "a"), F(3, 2), "outside"),
            (atom("p", "a"), F(0), "strictly positive"),
            (atom("p", "a"), "1/0", "not a rational degree"),
        ],
        ids=["non-ground", "null", "above-one", "zero", "malformed"],
    )
    def test_databases_not_from_the_parser_are_validated(self, fact, degree, message):
        # only parse_many skips FuzzyDatabase's checks, having made them itself
        with pytest.raises(DomainError, match=message):
            FuzzyDatabase({fact: degree})
        with pytest.raises(DomainError, match=message):
            database_from_pairs([(fact, degree)])

    def test_public_database_still_rejects_bad_degrees(self):
        with pytest.raises(DomainError, match="outside"):
            FuzzyDatabase({atom("p", "a"): F(3, 2)})


def _error_of(texts):
    try:
        parse_many(texts)
    except ParseError as exc:
        return ParseError, exc.line, exc.column, exc.token
    except DomainError as exc:
        return DomainError, str(exc)
    return None


class TestErrorPositions:
    @pytest.mark.parametrize(
        "texts, expected",
        [
            (["p(a).\n% a comment & more\nq(b) & r(c).\n"], (ParseError, 3, 6, "&")),
            (["p(a).\nq(b)"], (ParseError, 2, 5, "")),  # end of input
            (["p(,)."], (ParseError, 1, 3, ",")),
            (["p(a).\n  q(X)."], (ParseError, 2, 3, "q(X)")),
            (["p(a).\n0.5/2 :: q(a).\n"], (ParseError, 2, 1, "0.5")),  # fraction degrees are integer/integer
            (
                ["0.5 :: p(a).\n\n0.6 :: p(a).\n"],
                (DomainError, "conflicting degrees 1/2 and 3/5 for fact p(a) (line 3)"),
            ),
            # a syntax error in a later text wins over a conflict in an earlier one
            (["0.5 :: p(a).\n0.6 :: p(a).\n", "q(b)\n"], (ParseError, 2, 1, "")),
        ],
    )
    def test_exact_position(self, texts, expected):
        assert _error_of(texts) == expected


class TestQueryAtoms:
    def test_parse_ground_atom(self):
        assert parse_ground_atom("orca(i1)") == atom("orca", "i1")

    def test_optional_trailing_dot(self):
        assert parse_ground_atom("orca(i1).") == atom("orca", "i1")

    def test_variables_rejected(self):
        with pytest.raises(NonGroundQuery):
            parse_ground_atom("orca(X)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ground_atom("orca(i1) orca(i2)")


class TestFormat:
    def test_canonical_fact_line(self):
        prog, db = parse("0.8 :: label(i1, whale).")
        assert format_instance(prog, db) == "4/5 :: label(i1, whale).\n"

    def test_empty_instance(self):
        prog, db = parse("")
        assert format_instance(prog, db) == ""

    def test_example3_golden(self):
        text = """
        0.8 :: s(a).
        0.2 :: t(a).
        p(X, Y) :- s(X).
        t(X) :- p(X, Y).
        """
        prog, db = parse(text)
        expected = "4/5 :: s(a).\n1/5 :: t(a).\np(X, Y) :- s(X).\nt(X) :- p(X, Y).\n"
        assert format_instance(prog, db) == expected
        # byte-stable across repeated runs
        assert format_instance(prog, db) == format_instance(*parse(expected))

    def test_facts_sorted_by_predicate_then_args(self):
        prog, db = parse("q(b).\nq(a).\np(z).")
        out = format_instance(prog, db)
        assert out.index("p(z)") < out.index("q(a)") < out.index("q(b)")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances_round_trip(self, seed):
        inst = random_instance(random.Random(seed))
        text = format_instance(inst.program, inst.database)
        prog2, db2 = parse(text)
        assert prog2 == inst.program
        assert db2 == inst.database

    @given(st.integers(min_value=1, max_value=999), st.integers(min_value=1, max_value=999))
    @settings(max_examples=60)
    def test_degree_round_trip(self, num, den):
        if num > den:
            num, den = den, num
        d = F(num, den)
        text = f"{d} :: p(a)."
        _, db = parse(text)
        assert db.degree(atom("p", "a")) == d

    def test_determinism(self):
        text = "0.8 :: s(a).\np(X, Y) :- s(X).\n"
        assert parse(text) == parse(text)
        assert format_instance(*parse(text)) == format_instance(*parse(text))


class TestMultiFile:
    def test_merge_rules_and_facts(self):
        prog, db = parse_many(["p(a).", "q(X) :- p(X)."])
        assert len(prog.rules) == 1 and len(db) == 1

    def test_cross_file_conflict(self):
        with pytest.raises(DomainError):
            parse_many(["0.5 :: p(a).", "0.7 :: p(a)."])


# Grammar tokens, fragments of statements and a few characters outside it.
_PIECES = st.sampled_from(
    [":-", "::", "/", ".", ",", "(", ")", "%", "\n", " ", "0", "1", "00", "0.5", "3/4", "p", "q(a)",
     "r", "a", "X", "Y", "_", "p(X)", "p(a).", "0.5 :: ", "q(X) :- p(X).", "&", "é", "\t", "'", ":"]
)


class TestFuzz:
    @given(st.lists(_PIECES, max_size=30).map("".join))
    @example("1/00 :: p(a).")
    @settings(max_examples=300, deadline=None)
    def test_parse_many_raises_only_input_errors(self, text):
        for strict in (False, True):
            try:
                parse_many([text, "r(c).\n"], strict=strict)
            except (ParseError, DomainError, ArityError, SafetyError):
                pass

    @given(st.lists(_PIECES, max_size=12).map("".join))
    @example("1/00 :: p(a).")
    @settings(max_examples=300, deadline=None)
    def test_parse_ground_atom_raises_only_input_errors(self, text):
        try:
            parse_ground_atom(text)
        except (ParseError, NonGroundQuery):
            pass


def _outcome(run, *args, **kwargs):
    """What a parse returns, or the type and fields of the input error it raises."""
    try:
        return run(*args, **kwargs)
    except ParseError as exc:
        return ParseError, exc.message, exc.line, exc.column, exc.token
    except (DomainError, ArityError, SafetyError, NonGroundQuery) as exc:
        return type(exc), str(exc)


_SEPARATORS = st.sampled_from([" ", "\n", "\n\n", "\t", " % note: p(a).\n", "\n%\n"])
_DEGREES = st.sampled_from(
    ["", "1 :: ", "0.5 :: ", "9/10 :: ", "1/3::", "0.25 ::", "007/8 :: ", "2 :: ", "0 :: ", "1/0 :: ", "1.5/2 :: "]
)
_PREDICATES = st.sampled_from(["p", "q", "e", "r2", "k'", "s_t"])
_TERMS = st.sampled_from(["a", "b", "n1", "42", "0.5", "X", "Y", "_", "_Z1", "W2"])


@st.composite
def _atoms(draw) -> str:
    name = draw(_PREDICATES)
    args = draw(st.lists(_TERMS, max_size=3))
    return f"{name}({', '.join(args)})" if args else name


@st.composite
def _statements(draw) -> str:
    head = draw(_atoms())
    if draw(st.booleans()):
        return f"{draw(_DEGREES)}{head}."
    return f"{head} :- {', '.join(draw(st.lists(_atoms(), min_size=1, max_size=3)))}."


@st.composite
def _mvdl_texts(draw) -> str:
    """Statements in the grammar, some spliced with pieces inside or outside it."""
    text = "".join(s + draw(_SEPARATORS) for s in draw(st.lists(_statements(), max_size=6)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        piece = draw(_PIECES | st.sampled_from(["\u0663", "\u00b2", "\u0660.\u0665", "\u00a0", "\r\n"]))
        text = text[:i] + piece + text[j:]
    return text


class TestAgainstNaiveParser:
    """The parser against the reference tokenizer and descent in helpers.py."""

    @given(st.lists(_mvdl_texts(), min_size=1, max_size=2), st.booleans())
    @example(["0.5 :: p(a).\n", "0.6 :: p(a)."], False)
    @example(["p(a).\n% end"], False)
    @example(["p(a)\n  "], False)
    @settings(max_examples=400, deadline=None)
    def test_parse_many(self, texts, strict):
        assert _outcome(parse_many, texts, strict=strict) == _outcome(naive_parse_many, texts, strict=strict)

    @given(st.lists(_PIECES, max_size=8).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_parse_ground_atom_and_degree(self, text):
        assert _outcome(parse_ground_atom, text) == _outcome(naive_parse_ground_atom, text)
        assert _outcome(parse_degree, text) == _outcome(naive_parse_degree, text)


class TestKeyedDatabase:
    """The parser hands over its facts as name keys; a database built from
    `core` atoms keys them the same way, so the two routes agree."""

    @staticmethod
    def _outcome(engine):
        try:
            return engine.degrees
        except Exception as exc:  # Unsatisfiable and kin: compare the verdict
            return type(exc)

    def test_atoms_and_text_give_the_same_database(self):
        rng = random.Random(2424)
        draws = existential = 0
        while draws < 300:
            instance = random_instance(rng)
            if rng.random() < 0.3:
                program = random_existential_program(rng)
                if not is_weakly_acyclic_ve(program)[0]:
                    continue
                facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
                rng.shuffle(facts)
                tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
                instance = Instance(program, tau, instance.K)
                existential += 1
            draws += 1
            given = instance.database
            text = "".join(f"{d} :: {a}.\n" for a, d in given.entries.items())
            text += "".join(f"{r}.\n" for r in instance.program.rules)
            program, parsed = parse(text)
            assert parsed == given and len(parsed) == len(given)
            assert list(parsed.entries.items()) == list(given.entries.items())
            for a, d in given.entries.items():
                assert parsed.degree(a) == d and a in parsed
            assert parsed.degree(atom("p", "zz")) is None and atom("p", "zz") not in parsed
            assert parsed.degree(atom("p", "X")) is None and Atom("p", (LabelledNull(1),)) not in parsed
            # one ranking for database and atom input
            by_key, by_atom = oblivious_chase(program, parsed), oblivious_chase(program, list(given.entries))
            assert (by_key.keys, by_key.ground, by_key.terms) == (by_atom.keys, by_atom.ground, by_atom.terms)
            for relaxed in (False, True):
                engines = [Engine(Instance(p, d, instance.K), relaxed=relaxed)
                           for p, d in ((instance.program, given), (program, parsed))]
                assert self._outcome(engines[0]) == self._outcome(engines[1])
                assert atom_bounds(engines[0]) == atom_bounds(engines[1])
        assert existential >= 50
