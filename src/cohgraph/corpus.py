"""Line-delimited JSON corpus format.

One document per line. Field contract (all names fixed):

    id          string, unique in the corpus
    domain_tag  string
    label       "low" | "medium" | "high"
                | {"raw": int, "scheme": "gcdc3" | "cohesentia5"}
                | null (unlabeled, inference only)
    sentences   [{"text": str, "tokens": [str, ...]}, ...]   (order = 1-based index)
    annotations {"nouns":       [[sentence_index, [start, end], surface], ...],
                 "coref_links": [[[si, [s, e]], [sj, [s, e]]], ...],
                 "relations":   [[i, sense_name, kind, direction_or_null], ...]}

Raw integer labels are mapped on load; serialization always emits the mapped
string form, making serialize(parse(x)) canonical: writing a parsed document
back out and re-parsing it is byte-stable.

A missing or null `annotations` is empty. Any other malformed field, such as
a non-object `annotations` or a non-array `tokens`, `nouns`, `coref_links`
or `relations`, raises CorpusFormatError naming the field and the line.
Parsed documents share immutable objects. Every relation sense is the
registry's own instance. Strings and spans are shared by the read: it keeps
one table of the values parsed so far, so equal tokens, noun surfaces and
domain tags anywhere in the corpus are one str, and equal token spans are
one TokenSpan. Sentence texts and document ids, which rarely repeat, are not
shared. The table is a dict that lives only as long as the read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .documents import (
    AnnotationSet,
    Document,
    DocumentStructureError,
    Mention,
    NounAnnotation,
    RelationAnnotation,
    Sentence,
    TokenSpan,
)
from .labels import CoherenceLabel, ScoreScheme, map_raw_score
from .relations import CauseDirection, UnknownSenseError, load_registry


class CorpusFormatError(ValueError):
    """Malformed corpus content; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


_DIRECTIONS = {direction.value: direction for direction in CauseDirection}

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def _checked(value, expected: type, *where):
    """value if it has the JSON type expected; otherwise a ValueError naming
    the field by the words in where, which are joined only then."""
    if not isinstance(value, expected):
        raise ValueError(f"{' '.join(map(str, where))} must be "
                         f"{_JSON_TYPES[expected]}, got "
                         f"{_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _direction(value) -> CauseDirection:
    """The member a direction string names; anything else goes to the enum's
    own conversion, which raises its usual message."""
    try:
        return _DIRECTIONS[value]
    except (KeyError, TypeError):
        return CauseDirection(value)


class _Shared(dict):
    """The values one read has parsed, each held once: a str maps to
    itself and a (start, end) pair of int to its TokenSpan. A lookup adds
    a missing key, and a hit never leaves C."""

    def __missing__(self, key):
        value = self[key] = TokenSpan(*key) if type(key) is tuple else key
        return value


def document_from_record(record: dict, line_number: int = 0,
                         shared: _Shared | None = None) -> Document:
    """Build and validate a Document from one decoded JSON record, in one
    pass that shares senses, strings and spans as the module docstring says.
    shared is the read's table; without one, values are shared within this
    document."""
    registry = load_registry()
    # every str key has passed through str, so 1 and true read as "1" and
    # "True" and never meet as keys
    one = (_Shared() if shared is None else shared).__getitem__

    def span(raw) -> TokenSpan:
        return one((int(raw[0]), int(raw[1])))

    try:
        sentences = tuple(
            Sentence(k + 1, str(s["text"]),
                     tuple(map(one, map(str, _checked(
                         s["tokens"], list, "'tokens' of sentence", k + 1)))))
            for k, s in enumerate(record["sentences"]))
        ann = record.get("annotations")
        ann = {} if ann is None else _checked(ann, dict, "'annotations'")
        nouns = tuple(
            NounAnnotation(int(i), span(raw), one(str(surface)))
            for i, raw, surface in _checked(ann.get("nouns", []), list,
                                            "'annotations.nouns'"))
        corefs = tuple(
            (Mention(int(a[0]), span(a[1])), Mention(int(b[0]), span(b[1])))
            for a, b in _checked(ann.get("coref_links", []), list,
                                 "'annotations.coref_links'"))
        relations = []
        for entry in _checked(ann.get("relations", []), list,
                              "'annotations.relations'"):
            i, name, kind = entry[0], entry[1], entry[2]
            direction = entry[3] if len(entry) > 3 else None
            sense = registry.lookup_entry(name, kind)
            direction = _direction(direction) if direction else None
            relations.append(RelationAnnotation(int(i), sense, direction))
        doc = Document(
            id=str(record["id"]),
            sentences=sentences,
            label=_parse_label(record.get("label")),
            domain_tag=one(str(record.get("domain_tag", ""))),
            annotations=AnnotationSet(nouns, corefs, tuple(relations)),
        )
        return doc.validate()
    except CorpusFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError,
            DocumentStructureError, UnknownSenseError) as exc:
        raise CorpusFormatError(line_number, str(exc)) from exc


def _parse_label(raw) -> CoherenceLabel | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        return CoherenceLabel.from_text(raw)
    if isinstance(raw, dict):
        return map_raw_score(ScoreScheme(str(raw["scheme"])), raw["raw"])
    raise ValueError(f"label must be a string, object, or null, got {raw!r}")


def document_to_record(doc: Document) -> dict:
    """Canonical JSON-ready record for a document (label in string form)."""
    return {
        "id": doc.id,
        "domain_tag": doc.domain_tag,
        "label": doc.label.as_text if doc.label is not None else None,
        "sentences": [{"text": s.text, "tokens": list(s.tokens)}
                      for s in doc.sentences],
        "annotations": {
            "nouns": [[n.sentence_index, [n.span.start, n.span.end], n.surface]
                      for n in doc.annotations.nouns],
            "coref_links": [
                [[a.sentence_index, [a.span.start, a.span.end]],
                 [b.sentence_index, [b.span.start, b.span.end]]]
                for a, b in doc.annotations.coref_links],
            "relations": [
                [r.sentence_index, r.sense.name, r.sense.kind.value,
                 r.direction.value if r.direction else None]
                for r in doc.annotations.relations],
        },
    }


def dumps_canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def iter_corpus(path: str | Path) -> Iterator[Document]:
    """Yield validated documents; raises CorpusFormatError with line numbers,
    also for an id that an earlier line holds or a byte that is not UTF-8."""
    id_lines: dict[str, int] = {}
    shared = _Shared()
    # surrogateescape turns a byte that is not UTF-8 into a lone surrogate,
    # which cannot encode, so the line that holds it is the one refused
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise CorpusFormatError(
                        line_number, f"byte {byte:#04x} at char {exc.start} "
                        f"is not UTF-8") from exc
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(line_number, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(line_number, "record is not a JSON object")
            doc = document_from_record(record, line_number, shared)
            first = id_lines.setdefault(doc.id, line_number)
            if first != line_number:
                raise CorpusFormatError(line_number, f"document id {doc.id!r} "
                                        f"is already the id of line {first}")
            yield doc


def read_corpus(path: str | Path) -> list[Document]:
    return list(iter_corpus(path))


def write_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents in canonical form, one per line, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(dumps_canonical(document_to_record(doc)))
            fh.write("\n")
