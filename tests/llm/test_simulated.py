"""Simulated LLM tests: syntax unification, fallback, hallucination."""

import numpy as np
import pytest

from repro.llm.prompts import build_interpretation_prompt
from repro.llm.simulated import SimulatedLLM, normalize_tokens
from repro.logs.events import concept_by_name
from repro.logs.generator import generate_logs


def _interpret(llm: SimulatedLLM, system: str, message: str) -> str:
    return llm.complete(build_interpretation_prompt(system, message))


class TestNormalizeTokens:
    def test_lowercase_and_split(self):
        assert normalize_tokens("Connection REFUSED (111)") == ["connection", "refused"]

    def test_drops_numbers_and_hex(self):
        assert normalize_tokens("code 0xdead 42") == ["code"]

    def test_drops_stopwords(self):
        assert "the" not in normalize_tokens("the disk of the node")


class TestSyntaxUnification:
    """The core LEI property: dialects of one concept -> one sentence."""

    def test_cross_system_unification(self):
        llm = SimulatedLLM()
        concept = concept_by_name("network_interruption")
        interpretations = set()
        for system, phrase in concept.phrases.items():
            rendered = phrase.replace("<*>", "77")
            interpretations.add(_interpret(llm, system, rendered))
        assert interpretations == {concept.canonical}

    def test_unification_on_generated_streams(self):
        """Over full generated streams, most messages must map to their
        ground-truth concept's canonical sentence."""
        llm = SimulatedLLM()
        correct = 0
        records = generate_logs("system_c", 300, seed=0)
        for record in records:
            expected = concept_by_name(record.concept).canonical
            if _interpret(llm, "system_c", record.message) == expected:
                correct += 1
        assert correct / len(records) > 0.9

    def test_distinct_concepts_stay_distinct(self):
        llm = SimulatedLLM()
        a = _interpret(llm, "bgl", "rts panic! - stopping execution, reason code 7")
        b = _interpret(llm, "bgl", "MMCS heartbeat from node 12 acknowledged")
        assert a != b


class TestFallback:
    def test_unknown_message_gets_normalizing_rewrite(self):
        llm = SimulatedLLM()
        out = _interpret(llm, "bgl", "zorgon flux capacitor misalignment 77")
        assert out.startswith("Event:")
        assert "77" not in out  # numbers dropped

    def test_fallback_expands_abbreviations(self):
        llm = SimulatedLLM()
        out = _interpret(llm, "system_c", "gateway los detected on uplink zz9")
        assert "loss of signal" in out

    def test_empty_message(self):
        llm = SimulatedLLM()
        out = _interpret(llm, "bgl", "42 99 0x10")
        assert "unrecognized" in out


class TestHallucination:
    def test_zero_rate_deterministic_and_correct(self):
        llm = SimulatedLLM(hallucination_rate=0.0)
        message = "machine check interrupt (bit=0x10): L2 dcache unit read return parity error"
        outputs = {_interpret(llm, "bgl", message) for _ in range(5)}
        assert outputs == {concept_by_name("parity_error").canonical}

    def test_rate_changes_some_outputs(self):
        clean = SimulatedLLM(hallucination_rate=0.0)
        noisy = SimulatedLLM(hallucination_rate=0.8, seed=1)
        message = "machine check interrupt (bit=0x10): L2 dcache unit read return parity error"
        expected = _interpret(clean, "bgl", message)
        outputs = [_interpret(noisy, "bgl", message) for _ in range(20)]
        assert any(o != expected for o in outputs)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SimulatedLLM(hallucination_rate=1.0)
        with pytest.raises(ValueError):
            SimulatedLLM(hallucination_rate=-0.1)

    def test_call_count_tracked(self):
        llm = SimulatedLLM()
        _interpret(llm, "bgl", "anything")
        _interpret(llm, "bgl", "anything else")
        assert llm.call_count == 2


def _linear_scan(knowledge, tokens):
    """The matcher before the token index: every skeleton, in order."""
    best = None
    best_score = 0.0
    for skeleton, concept in knowledge:
        if not skeleton:
            continue
        overlap = len(tokens & skeleton) / len(skeleton)
        if overlap > best_score:
            best, best_score = concept, overlap
    return best, best_score


class TestIndexedMatcher:
    def test_equals_the_linear_scan_on_generated_streams(self):
        from repro.logs.generator import LogGenerator
        from repro.logs.systems import ISP_SYSTEMS, PUBLIC_SYSTEMS

        llm = SimulatedLLM()
        messages = sorted({record.message
                           for system in PUBLIC_SYSTEMS + ISP_SYSTEMS
                           for record in LogGenerator(system, seed=11).generate(1500)})
        assert len(messages) > 1000
        for message in messages:
            tokens = set(normalize_tokens(message))
            assert llm._best_match(tokens) == _linear_scan(llm._knowledge, tokens), message

    def test_equals_the_linear_scan_where_the_rewrite_takes_over(self):
        llm = SimulatedLLM()
        weak = 0
        for message in ["", "0x1f 42", "zebra quokka 12", "kernel panic quokka",
                        "custom vendor widget exploded", "disk quokka zebra gamma"]:
            tokens = set(normalize_tokens(message))
            concept, score = llm._best_match(tokens)
            assert (concept, score) == _linear_scan(llm._knowledge, tokens)
            weak += score < llm.match_threshold
        assert weak >= 4
        assert llm._best_match({"quokka", "zebra"}) == (None, 0.0)

    def test_the_earliest_skeleton_wins_a_tie(self):
        llm = SimulatedLLM()
        knowledge = llm._knowledge
        first, first_concept = knowledge[0]
        second, second_concept = next(
            (skeleton, concept) for skeleton, concept in knowledge
            if concept is not first_concept)
        tokens = set(first | second)
        full = [concept for skeleton, concept in knowledge if skeleton <= tokens]
        assert first_concept in full and second_concept in full
        assert llm._best_match(tokens) == (first_concept, 1.0)
        assert llm._best_match(tokens) == _linear_scan(knowledge, tokens)
