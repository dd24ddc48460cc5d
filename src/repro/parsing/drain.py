"""Drain: online log parsing with a fixed-depth prefix tree (He et al., ICWS 2017).

Drain routes each masked log message through a tree keyed first by token
count, then by the first ``depth`` tokens (wildcarding tokens that contain
digits), and finally matches against the leaf's template groups by token
similarity.  Messages joining a group generalize the group's template:
positions that disagree become ``<*>``.

This is the parser LogSynergy's pre-processing stage uses (§III-B) to turn
raw messages into (event template, parameters) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import get_registry
from .masking import WILDCARD, mask_message

__all__ = ["LogTemplate", "DrainParser", "ParseResult", "ROUTE_MEMO_CAP", "MATCH_MEMO_CAP"]

# Most route-memo entries a parser keeps: a stream whose leading tokens
# never repeat (hex ids, user names) clears the memo when it fills
# rather than growing it for the life of the process.
ROUTE_MEMO_CAP = 4096

# Most match-memo entries a parser keeps (masked text -> chosen
# template); cleared when full, like the route memo.
MATCH_MEMO_CAP = 4096


@dataclass
class LogTemplate:
    """One mined template (log event) with its token form and match count."""

    template_id: int
    tokens: list[str]
    count: int = 0

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def parameters_of(self, tokens: list[str]) -> list[str]:
        """Extract the concrete values at this template's wildcard positions."""
        return [tok for tmpl, tok in zip(self.tokens, tokens) if tmpl == WILDCARD]


@dataclass(frozen=True)
class ParseResult:
    """Outcome of parsing one message."""

    template: LogTemplate
    parameters: tuple[str, ...]


class _Node:
    __slots__ = ("children", "groups", "version")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.groups: list[LogTemplate] = []
        # Bumped whenever a leaf gains a group or one of its groups'
        # tokens change: the match memo's staleness check.
        self.version = 0


def _has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


class DrainParser:
    """Fixed-depth-tree online log parser.

    Parameters
    ----------
    depth:
        Number of leading tokens used as tree keys (Drain paper default 4;
        effective internal depth is ``depth - 2``).
    similarity_threshold:
        Minimum fraction of equal tokens for a message to join a group.
    max_children:
        Cap on children per internal node; overflow routes to a ``<*>``
        child, bounding memory on high-cardinality token positions.
    """

    def __init__(self, depth: int = 4, similarity_threshold: float = 0.5,
                 max_children: int = 100, mask: bool = True):
        if depth < 3:
            raise ValueError(f"depth must be >= 3, got {depth}")
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError(f"similarity_threshold must be in (0, 1], got {similarity_threshold}")
        self.depth = depth - 2
        self.similarity_threshold = similarity_threshold
        self.max_children = max_children
        self.mask = mask
        self._length_roots: dict[int, _Node] = {}
        # (token count, first ``depth`` tokens) -> leaf; never serialized.
        self._route_memo: dict[tuple, _Node] = {}
        # Masked text -> (leaf, leaf version, template, token count), and
        # token -> masked token; per parser, never serialized.
        self._match_memo: dict[str, tuple[_Node, int, LogTemplate, int]] = {}
        self._mask_memo: dict[str, str] = {}
        self._templates: dict[int, LogTemplate] = {}
        self._next_id = 0
        registry = get_registry()
        self._parse_counter = registry.counter("drain.messages_parsed")
        self._template_counter = registry.counter("drain.templates_created")
        self._depth_histogram = registry.histogram(
            "drain.match_depth", boundaries=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
        )

    # ------------------------------------------------------------------
    @property
    def templates(self) -> list[LogTemplate]:
        """All mined templates, ordered by id."""
        return [self._templates[i] for i in sorted(self._templates)]

    def num_templates(self) -> int:
        return len(self._templates)

    def get_template(self, template_id: int) -> LogTemplate:
        return self._templates[template_id]

    # ------------------------------------------------------------------
    def _route(self, tokens: list[str]) -> _Node:
        """The leaf node for this token sequence, memoized on its key.

        The memo is exact: tree nodes are never removed and a child,
        once created, is never replaced, so the walk from a key already
        routed always ends at the same leaf — including a ``max_children``
        overflow to ``<*>`` (a full node stays full).
        """
        key = (len(tokens), *tokens[:self.depth])
        leaf = self._route_memo.get(key)
        if leaf is None:
            leaf = self._walk(tokens)
            if len(self._route_memo) >= ROUTE_MEMO_CAP:
                self._route_memo.clear()
            self._route_memo[key] = leaf
        return leaf

    def _walk(self, tokens: list[str]) -> _Node:
        """Walk/extend the tree to the leaf node for this token sequence."""
        root = self._length_roots.setdefault(len(tokens), _Node())
        node = root
        for position in range(min(self.depth, len(tokens))):
            token = tokens[position]
            if _has_digit(token):
                token = WILDCARD
            child = node.children.get(token)
            if child is None:
                if token != WILDCARD and len(node.children) >= self.max_children:
                    token = WILDCARD
                    child = node.children.get(token)
                if child is None:
                    child = _Node()
                    node.children[token] = child
            node = child
        return node

    @staticmethod
    def _similarity(template_tokens: list[str], tokens: list[str]) -> float:
        if len(template_tokens) != len(tokens):
            return 0.0
        non_wild = len(template_tokens) - template_tokens.count(WILDCARD)
        if non_wild == 0:
            return 1.0
        equal = sum(1 for a, b in zip(template_tokens, tokens) if a == b and a != WILDCARD)
        return equal / non_wild

    def _parse(self, message: str) -> tuple[LogTemplate, list[str] | None, str | None]:
        """Match one message into the tree, creating or generalizing a
        template; returns the template, the message's tokens (``None``
        when the match memo answered) and its masked text (``None`` when
        the parser does not mask).

        The match memo is exact.  After a parse of text ``t`` chose
        template ``T`` in leaf ``L``, ``T`` has similarity 1.0 with
        ``t``'s tokens: it was created from them, or generalized at every
        position that disagrees.  Every group before ``T`` in ``L``
        scored below 1.0: below ``T``'s similarity when the scan chose
        ``T``, below the threshold when ``T`` was created.  Groups after
        ``T`` cannot displace it under the scan's strict ``>``.  Generalizing
        ``T`` again with the same tokens is a no-op.  So while ``L``'s
        version is unchanged (no group added, no group's tokens changed),
        ``t`` chooses ``T`` again and leaves the tree as it is: a hit
        skips split, route and the similarity scan, and only bumps
        ``T.count`` and the ``drain.*`` metrics.
        """
        masked = mask_message(message, memo=self._mask_memo) if self.mask else None
        text = message if masked is None else masked
        self._parse_counter.inc()
        memo = self._match_memo.get(text)
        if memo is not None:
            leaf, version, template, length = memo
            if leaf.version == version:
                self._depth_histogram.observe(min(self.depth, length))
                template.count += 1
                return template, None, masked

        tokens = text.split() or ["<EMPTY>"]
        self._depth_histogram.observe(min(self.depth, len(tokens)))
        leaf = self._route(tokens)

        best: LogTemplate | None = None
        best_sim = 0.0
        for group in leaf.groups:
            sim = self._similarity(group.tokens, tokens)
            if sim > best_sim:
                best, best_sim = group, sim

        if best is None or best_sim < self.similarity_threshold:
            best = LogTemplate(template_id=self._next_id, tokens=list(tokens), count=1)
            self._next_id += 1
            leaf.groups.append(best)
            leaf.version += 1
            self._templates[best.template_id] = best
            self._template_counter.inc()
        else:
            # Generalize: disagreeing positions become wildcards.
            if best.tokens != tokens:
                generalized = [
                    a if a == b else WILDCARD for a, b in zip(best.tokens, tokens)
                ]
                if generalized != best.tokens:
                    best.tokens = generalized
                    leaf.version += 1
            best.count += 1
        if len(self._match_memo) >= MATCH_MEMO_CAP:
            self._match_memo.clear()
        self._match_memo[text] = (leaf, leaf.version, best, len(tokens))
        return best, tokens, masked

    def parse(self, message: str) -> ParseResult:
        """Parse one message, creating or generalizing a template."""
        template, tokens, masked = self._parse(message)
        if tokens is None:
            tokens = (message if masked is None else masked).split()
        return ParseResult(template=template,
                           parameters=tuple(template.parameters_of(tokens)))

    def parse_id(self, message: str) -> tuple[int, str | None]:
        """Parse one message and return its template id and masked text
        (``None`` when the parser does not mask): the same tree update
        as :meth:`parse`, without building the parameters."""
        template, _, masked = self._parse(message)
        return template.template_id, masked

    def parse_all(self, messages: list[str]) -> list[ParseResult]:
        """Parse a batch of messages in order."""
        return [self.parse(m) for m in messages]

    # ------------------------------------------------------------------
    # Serialization (production pipelines persist the mined tree so event
    # ids stay stable across restarts)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize the full parser state to plain JSON-able data."""

        def node_to_dict(node: _Node) -> dict:
            return {
                "children": {t: node_to_dict(c) for t, c in node.children.items()},
                "groups": [g.template_id for g in node.groups],
            }

        return {
            "depth": self.depth + 2,
            "similarity_threshold": self.similarity_threshold,
            "max_children": self.max_children,
            "mask": self.mask,
            "next_id": self._next_id,
            "templates": {
                str(tid): {"tokens": t.tokens, "count": t.count}
                for tid, t in self._templates.items()
            },
            "roots": {
                str(length): node_to_dict(root)
                for length, root in self._length_roots.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DrainParser":
        """Rebuild a parser previously serialized with :meth:`to_dict`."""
        parser = cls(
            depth=payload["depth"],
            similarity_threshold=payload["similarity_threshold"],
            max_children=payload["max_children"],
            mask=payload["mask"],
        )
        parser._next_id = payload["next_id"]
        parser._templates = {
            int(tid): LogTemplate(template_id=int(tid), tokens=list(spec["tokens"]),
                                  count=spec["count"])
            for tid, spec in payload["templates"].items()
        }

        def dict_to_node(spec: dict) -> _Node:
            node = _Node()
            node.children = {t: dict_to_node(c) for t, c in spec["children"].items()}
            node.groups = [parser._templates[tid] for tid in spec["groups"]]
            return node

        parser._length_roots = {
            int(length): dict_to_node(spec) for length, spec in payload["roots"].items()
        }
        return parser
