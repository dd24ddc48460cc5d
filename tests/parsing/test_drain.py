"""Drain parser tests."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.logs import PROFILES, LogGenerator
from repro.logs.generator import generate_logs
from repro.parsing.drain import MATCH_MEMO_CAP, ROUTE_MEMO_CAP, DrainParser
from repro.parsing.masking import WILDCARD, mask_message


class TestBasicParsing:
    def test_same_template_same_id(self):
        parser = DrainParser()
        a = parser.parse("connection from 10.0.0.1 refused")
        b = parser.parse("connection from 10.0.0.2 refused")
        assert a.template.template_id == b.template.template_id

    def test_different_structure_different_id(self):
        parser = DrainParser()
        a = parser.parse("user root logged in")
        b = parser.parse("disk sda1 write failure on block 17")
        assert a.template.template_id != b.template.template_id

    def test_template_generalizes_varying_positions(self):
        # Variance must sit beyond the tree-key prefix (first depth-2
        # tokens); varying the prefix creates separate groups — that is
        # Drain's actual behaviour and why masking exists.
        parser = DrainParser()
        parser.parse("job started alpha on node west")
        result = parser.parse("job started beta on node east")
        tokens = result.template.tokens
        assert tokens[2] == WILDCARD
        assert tokens[-1] == WILDCARD
        assert "started" in tokens

    def test_parameters_extracted(self):
        parser = DrainParser()
        parser.parse("job started for user alpha")
        result = parser.parse("job started for user beta")
        assert "beta" in result.parameters

    def test_count_increments(self):
        parser = DrainParser()
        for _ in range(3):
            result = parser.parse("heartbeat from host 10.0.0.1")
        assert result.template.count == 3

    def test_length_partitioning(self):
        parser = DrainParser()
        a = parser.parse("one two three")
        b = parser.parse("one two three four")
        assert a.template.template_id != b.template.template_id

    def test_empty_message(self):
        parser = DrainParser()
        result = parser.parse("")
        assert result.template.tokens == ["<EMPTY>"]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DrainParser(depth=2)
        with pytest.raises(ValueError):
            DrainParser(similarity_threshold=0.0)


class TestTreeBehaviour:
    def test_digit_tokens_routed_to_wildcard(self):
        parser = DrainParser(mask=False)
        a = parser.parse("retry 17 scheduled now ok")
        b = parser.parse("retry 42 scheduled now ok")
        assert a.template.template_id == b.template.template_id

    def test_max_children_overflow(self):
        parser = DrainParser(max_children=2, mask=False)
        # Many distinct first tokens: overflow must route to wildcard, not crash.
        for word in ("alpha", "beta", "gamma", "delta", "epsilon"):
            parser.parse(f"{word} service event occurred")
        assert parser.num_templates() >= 1

    def test_get_template(self):
        parser = DrainParser()
        result = parser.parse("some stable message here")
        assert parser.get_template(result.template.template_id) is result.template

    def test_templates_ordered(self):
        parser = DrainParser()
        parser.parse_all(["aaa bbb ccc", "ddd eee fff", "ggg hhh iii"])
        ids = [t.template_id for t in parser.templates]
        assert ids == sorted(ids)


class TestOnGeneratedLogs:
    def test_template_count_near_concept_count(self):
        """Drain must recover approximately one template per concept."""
        records = generate_logs("bgl", 4000, seed=0)
        parser = DrainParser()
        for record in records:
            parser.parse(record.message)
        distinct_concepts = len({r.concept for r in records})
        assert distinct_concepts <= parser.num_templates() <= distinct_concepts * 3

    def test_concept_purity(self):
        """Messages of one template should overwhelmingly share a concept."""
        records = generate_logs("spirit", 4000, seed=1)
        parser = DrainParser()
        assignments = {}
        for record in records:
            tid = parser.parse(record.message).template.template_id
            assignments.setdefault(tid, []).append(record.concept)
        impure = 0
        for concepts in assignments.values():
            if len(set(concepts)) > 1:
                impure += 1
        assert impure <= max(1, parser.num_templates() // 10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_parse_never_crashes_on_generated(self, seed):
        parser = DrainParser()
        for record in generate_logs("system_c", 50, seed=seed):
            result = parser.parse(record.message)
            assert result.template.template_id >= 0


class _Unmemoized(DrainParser):
    """Walks the tree for every message: the route memo's reference."""

    def _route(self, tokens):
        return self._walk(tokens)


def _word(index: int) -> str:
    letters = []
    for _ in range(4):
        index, digit = divmod(index, 26)
        letters.append(chr(ord("a") + digit))
    return "u" + "".join(letters)


class TestRouteMemo:
    def test_memo_is_bounded_and_exact_over_distinct_leading_tokens(self):
        """50k distinct first tokens (users, hex-free ids) interleaved with
        a repetitive stream: the memo never passes its cap, and ids and
        the serialized tree match a parser that walks every message —
        also across a ``from_dict`` rebuild mid-stream."""
        repeats = [record.message
                   for record in generate_logs("bgl", 10_000, seed=3)]
        messages = []
        for index in range(50_000):
            tail = " ".join(["session", "opened", "for", "root"][:1 + index % 4])
            messages.append(f"{_word(index)} {tail}")
            if index % 5 == 0:
                messages.append(repeats[index // 5])
        reference = _Unmemoized()
        expected = [reference.parse(message).template.template_id
                    for message in messages]

        parser = DrainParser()
        got = []
        largest = 0
        half = len(messages) // 2
        for position, message in enumerate(messages):
            if position == half:
                parser = DrainParser.from_dict(parser.to_dict())
                assert parser._route_memo == {}
            got.append(parser.parse_id(message)[0])
            largest = max(largest, len(parser._route_memo))
        assert largest == ROUTE_MEMO_CAP  # filled, then cleared
        assert got == expected
        assert parser.to_dict() == reference.to_dict()

    def test_parse_and_parse_id_agree(self):
        messages = [record.message for record in generate_logs("spirit", 2000, seed=4)]
        full, lean = DrainParser(), DrainParser()
        for message in messages:
            assert lean.parse_id(message) == (
                full.parse(message).template.template_id, mask_message(message))
        assert lean.to_dict() == full.to_dict()

    def test_a_parser_that_does_not_mask_returns_no_masked_text(self):
        parser = DrainParser(mask=False)
        assert parser.parse_id("node 7 link up") == (0, None)


class _Cleared(DrainParser):
    """Forgets both memos before every parse: the match memo's reference."""

    def _parse(self, message):
        self._match_memo.clear()
        self._mask_memo.clear()
        return super()._parse(message)


def _assert_same_parses(messages, make=DrainParser, **options):
    memoized, reference = make(**options), _Cleared(**options)
    for message in messages:
        got, want = memoized.parse(message), reference.parse(message)
        assert got.template.template_id == want.template.template_id, message
        assert got.parameters == want.parameters, message
        assert memoized.parse_id(message) == reference.parse_id(message)
    assert memoized.to_dict() == reference.to_dict()
    return memoized


class TestMatchMemo:
    @pytest.mark.parametrize("scenario", [None, "volume-burst"])
    def test_equals_a_parser_without_memos_on_generated_streams(self, scenario):
        for index, system in enumerate(PROFILES):
            records = LogGenerator(system, seed=index,
                                   scenario=scenario).generate(1500)
            parser = _assert_same_parses([r.message for r in records])
            assert parser._match_memo

    def test_an_earlier_group_generalizing_between_two_hits(self):
        """``a b p q r`` is memoized on its own group; then the leaf's first
        group generalizes until it matches that text fully and, being
        first, must win the next parse."""
        messages = ["a b c d e", "a b p q r", "a b p q r", "a b c d s",
                    "a b c t u", "a b p q r", "a b v w z", "a b p q r",
                    "a b p q r"]
        parser = _assert_same_parses(messages, similarity_threshold=0.6)
        assert parser.parse_id("a b p q r")[0] == 0

    def test_the_memoized_group_generalizing_or_the_leaf_gaining_a_group(self):
        messages = ["job on alpha west", "job on alpha west",
                    "job on alpha east", "job on alpha west",
                    "job on zeta north", "job on alpha west",
                    "job on zeta north", "job on alpha east"]
        _assert_same_parses(messages, similarity_threshold=0.7)

    def test_the_first_of_equally_similar_groups_wins(self):
        parser = DrainParser(similarity_threshold=0.7)
        first = parser.parse_id("a b x y")[0]
        second = parser.parse_id("a b z w")[0]
        assert first != second
        for _ in range(2):  # cold, then from the memo
            assert parser.parse_id("a b x w")[0] == first

    def test_memos_belong_to_one_parser(self):
        left, right = DrainParser(), DrainParser()
        assert left.parse_id("disk full on node")[0] == 0
        assert right.parse_id("fan speed low now")[0] == 0
        assert right.parse_id("disk full on node")[0] == 1
        assert left.parse_id("fan speed low now")[0] == 1
        assert left._match_memo is not right._match_memo
        assert left._mask_memo is not right._mask_memo

    def test_a_pickled_warm_parser_parses_identically(self):
        messages = [r.message for r in generate_logs("thunderbird", 3000, seed=5)]
        warm = DrainParser()
        for message in messages[:1500]:
            warm.parse_id(message)
        assert warm._match_memo
        copy = pickle.loads(pickle.dumps(warm))
        for message in messages[1500:]:
            assert copy.parse_id(message) == warm.parse_id(message)
        assert copy.to_dict() == warm.to_dict()

    def test_memo_stays_at_or_under_its_cap(self):
        parser = DrainParser()
        largest = 0
        for index in range(MATCH_MEMO_CAP + 500):
            parser.parse_id(f"{_word(index)} session opened")
            largest = max(largest, len(parser._match_memo),
                          len(parser._mask_memo))
        assert largest == MATCH_MEMO_CAP  # filled, then cleared
