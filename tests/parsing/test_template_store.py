"""Template store tests."""

from repro.logs import generate_logs
from repro.parsing.masking import mask_message
from repro.parsing.template_store import TemplateStore


class TestTemplateStore:
    def test_representative_is_first_message(self):
        store = TemplateStore()
        store.ingest("login from 10.0.0.1 ok")
        store.ingest("login from 10.0.0.2 ok")
        event_id = store.event_ids[0]
        assert store.representative(event_id) == "login from 10.0.0.1 ok"

    def test_event_ids_sorted(self):
        store = TemplateStore()
        store.ingest_all(["aaa bbb ccc", "ddd eee fff", "ggg hhh iii"])
        assert store.event_ids == sorted(store.event_ids)

    def test_inventory_shape(self):
        store = TemplateStore()
        store.ingest_all(["one event here", "another event there"])
        inventory = store.inventory()
        for event_id, (template, representative) in inventory.items():
            assert isinstance(template, str) and isinstance(representative, str)
            assert store.template_text(event_id) == template

    def test_parsed_log_fields(self):
        store = TemplateStore()
        store.ingest("count 5 of thing")
        parsed = store.ingest("count 9 of thing")
        assert parsed.parameters  # the number position
        assert "<*>" in parsed.template_text

    def test_stable_ids_across_repeats(self):
        store = TemplateStore()
        first = store.ingest("stable message body")
        second = store.ingest("stable message body")
        assert first.event_id == second.event_id

    def test_ingest_id_matches_ingest(self):
        messages = [record.message for record in generate_logs("thunderbird", 1500, seed=5)]
        full, lean = TemplateStore(), TemplateStore()
        for message in messages:
            assert lean.ingest_id(message) == (
                full.ingest(message).event_id, mask_message(message))
        assert lean.to_dict() == full.to_dict()
