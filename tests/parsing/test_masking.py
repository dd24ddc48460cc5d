"""Variable masking tests."""

import pytest

from repro.logs import PROFILES, SCENARIOS, LogGenerator
from repro.parsing.masking import DEFAULT_MASKS, MASK_MEMO_CAP, WILDCARD, mask_message


class TestMasking:
    def test_ip(self):
        assert mask_message("connect to 10.0.0.1 failed") == f"connect to {WILDCARD} failed"

    def test_ip_port(self):
        assert mask_message("peer 172.30.72.31:33404 down") == f"peer {WILDCARD} down"

    def test_hex(self):
        assert mask_message("code 0xDEADBEEF raised") == f"code {WILDCARD} raised"

    def test_numbers(self):
        assert mask_message("retried 17 times in 2.5 s") == (
            f"retried {WILDCARD} times in {WILDCARD} s"
        )

    def test_path(self):
        assert mask_message("open /var/log/app failed") == f"open {WILDCARD} failed"

    def test_uuid(self):
        msg = "req 123e4567-e89b-12d3-a456-426614174000 done"
        assert mask_message(msg) == f"req {WILDCARD} done"

    def test_words_with_digits_inside_identifiers_kept(self):
        # Tokens like sd3 are not pure numbers; the number regex must not
        # split identifiers.
        out = mask_message("device sda1 ok")
        assert "sda1" in out or WILDCARD in out  # either policy, but no crash

    def test_no_variables_identity(self):
        assert mask_message("simple constant message") == "simple constant message"

    def test_idempotent(self):
        once = mask_message("ip 1.2.3.4 count 7")
        assert mask_message(once) == once


def unguarded(message: str) -> str:
    """The plain six-``sub`` chain the guards must reproduce exactly."""
    for _, _, pattern in DEFAULT_MASKS:
        message = pattern.sub(WILDCARD, message)
    return message


class TestGuardedMasking:
    """Each mask is skipped when its guard literal is absent; the output
    must equal the unguarded chain on every message."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_unguarded_chain_on_generated_streams(self, scenario):
        for index, system in enumerate(PROFILES):
            records = LogGenerator(system, seed=index,
                                   scenario=scenario).generate(400)
            for record in records:
                for text in (record.message, record.raw):
                    assert mask_message(text) == unguarded(text), text

    @pytest.mark.parametrize("message", [
        "lease deadbeef-cafe-babe-face-decafbadface renewed",
        "req 123E4567-E89B-12D3-A456-426614174000 done",
        "fault code 0X1F raised",
        "read /10.0.0.1/x failed",
        "connect db-primary:5432 refused",
        "peer 10.0.0.7:80 via gw 10.0.0.1 at /srv/a-b.c/log 0xff id 7",
        "plain words only here",
        "",
    ])
    def test_matches_unguarded_chain_on_edge_cases(self, message):
        assert mask_message(message) == unguarded(message)

    def test_uppercase_hex_prefix_stays_unmasked(self):
        assert "0X1F" in mask_message("fault code 0X1F raised")

    def test_all_letter_and_uppercase_uuids_are_masked(self):
        for uuid in ("deadbeef-cafe-babe-face-decafbadface",
                     "123E4567-E89B-12D3-A456-426614174000"):
            assert mask_message(f"id {uuid} ok") == f"id {WILDCARD} ok"


class TestTokenMasking:
    """With a memo, masking runs one space-separated token at a time; the
    output must equal the reference chain, which masks the whole text."""

    @pytest.mark.parametrize("scenario", [None, "volume-burst"])
    def test_matches_reference_chain_on_generated_streams(self, scenario):
        memo = {}
        for index, system in enumerate(PROFILES):
            records = LogGenerator(system, seed=index,
                                   scenario=scenario).generate(1500)
            for record in records:
                for text in (record.message, record.raw):
                    assert mask_message(text, memo=memo) == mask_message(text), text
        assert memo

    @pytest.mark.parametrize("message", [
        "",
        " ",
        "two  spaces  between",
        " leading and trailing ",
        "tab\tinside 10.0.0.1\tand\t7",
        "\t42\t",
        "lease deadbeef-cafe-babe-face-decafbadface renewed",
        "open /var/log/app failed",
        "read /10.0.0.1/x failed",
        "iface eth0x1f up 0x1f",
        "peer 10.0.0.7:80 down 10.0.0.7:",
        "arabic ٣ and ٣٤ superscript ² and x²",
        "12 1.5 1. .5 -3 3- 0 007",
        "<*> already masked 1",
    ])
    def test_matches_reference_chain_on_edge_cases(self, message):
        memo = {}
        for _ in range(2):  # cold, then every token from the memo
            assert mask_message(message, memo=memo) == mask_message(message)

    def test_only_tokens_without_digits_enter_the_memo(self):
        memo = {}
        assert mask_message("retry 17 of 2.5 at /var/log", memo=memo) == (
            f"retry {WILDCARD} of {WILDCARD} at {WILDCARD}")
        assert memo == {"retry": "retry", "of": "of", "at": "at",
                        "/var/log": WILDCARD}

    def test_memo_stays_at_or_under_its_cap(self):
        memo = {}
        largest = 0
        for index in range(MASK_MEMO_CAP + 500):
            word = "".join(chr(ord("a") + int(d)) for d in str(index))
            mask_message(f"user u{word} at node-{index % 7}", memo=memo)
            largest = max(largest, len(memo))
        assert largest == MASK_MEMO_CAP  # filled, then cleared
