"""Template store: stable event-id assignment plus representative messages.

LogSynergy sends *one representative raw message per template* to the LLM
(§III-C), so the store remembers the first concrete message seen for each
template and exposes the template inventory for interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drain import DrainParser, ParseResult

__all__ = ["TemplateStore", "ParsedLog"]


@dataclass(frozen=True)
class ParsedLog:
    """One parsed message: event id, template text, parameters."""

    event_id: int
    template_text: str
    parameters: tuple[str, ...]


class TemplateStore:
    """Wraps a :class:`DrainParser` with representative-message bookkeeping."""

    def __init__(self, parser: DrainParser | None = None):
        self.parser = parser or DrainParser()
        self._representatives: dict[int, str] = {}

    def ingest(self, message: str) -> ParsedLog:
        """Parse a message and record a representative if it is the first."""
        result: ParseResult = self.parser.parse(message)
        event_id = result.template.template_id
        self._representatives.setdefault(event_id, message)
        return ParsedLog(
            event_id=event_id,
            template_text=result.template.text,
            parameters=result.parameters,
        )

    def ingest_id(self, message: str) -> tuple[int, str | None]:
        """:meth:`ingest` for callers that need only the event id (runtime
        admission): same parser and representative update, no template
        text or parameters built.  Returns the id and the parser's masked
        text of the message (``None`` when the parser does not mask)."""
        event_id, masked = self.parser.parse_id(message)
        self._representatives.setdefault(event_id, message)
        return event_id, masked

    def ingest_all(self, messages: list[str]) -> list[ParsedLog]:
        return [self.ingest(m) for m in messages]

    @property
    def event_ids(self) -> list[int]:
        return sorted(self._representatives)

    def representative(self, event_id: int) -> str:
        """The first raw message observed for this event."""
        return self._representatives[event_id]

    def template_text(self, event_id: int) -> str:
        return self.parser.get_template(event_id).text

    def inventory(self) -> dict[int, tuple[str, str]]:
        """event_id -> (template text, representative raw message)."""
        return {
            event_id: (self.template_text(event_id), self._representatives[event_id])
            for event_id in self.event_ids
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize parser tree + representatives (JSON-able)."""
        return {
            "parser": self.parser.to_dict(),
            "representatives": {str(k): v for k, v in self._representatives.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TemplateStore":
        """Rebuild a store serialized with :meth:`to_dict`."""
        store = cls(parser=DrainParser.from_dict(payload["parser"]))
        store._representatives = {
            int(k): v for k, v in payload["representatives"].items()
        }
        return store
