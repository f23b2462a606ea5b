"""Corpus format: parsing, canonical serialization, error reporting."""

import copy
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.corpus import (CorpusFormatError, document_from_record,
                             document_to_record, dumps_canonical, read_corpus,
                             write_corpus)
from cohgraph.documents import DocumentStructureError
from cohgraph.labels import CoherenceLabel
from cohgraph.relations import load_registry
from cohgraph.synth import PROFILES, synth_generate

from conftest import JSON_VALUES, json_paths, make_demo_document, replaced_at


def test_roundtrip_is_byte_identical(tmp_path):
    """serialize(parse(serialize(doc))) equals serialize(doc) exactly."""
    path = tmp_path / "corpus.jsonl"
    write_corpus([make_demo_document()], path)
    first = path.read_bytes()
    docs = read_corpus(path)
    write_corpus(docs, path)
    assert path.read_bytes() == first


def test_raw_label_forms_are_accepted():
    record = document_to_record(make_demo_document())
    record["label"] = {"raw": 2, "scheme": "cohesentia5"}
    doc = document_from_record(record)
    assert doc.label is CoherenceLabel.LOW
    record["label"] = {"raw": 2, "scheme": "gcdc3"}
    assert document_from_record(record).label is CoherenceLabel.MEDIUM
    record["label"] = None
    assert document_from_record(record).label is None


def test_raw_label_canonicalizes_to_string(tmp_path):
    record = document_to_record(make_demo_document())
    record["label"] = {"raw": 5, "scheme": "cohesentia5"}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (doc,) = read_corpus(path)
    assert document_to_record(doc)["label"] == "high"


def test_malformed_line_reports_line_number(tmp_path):
    record = document_to_record(make_demo_document())
    good = [dumps_canonical(dict(record, id=f"demo-{i}")) for i in range(6)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(good + ["{not json"]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        read_corpus(path)
    assert err.value.line_number == 7
    assert "line 7" in str(err.value)


def test_bad_annotation_reports_line_number(tmp_path):
    record = document_to_record(make_demo_document())
    record["annotations"]["relations"][0][0] = 99  # non-adjacent reference
    path = tmp_path / "corpus.jsonl"
    path.write_text(dumps_canonical(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        read_corpus(path)
    assert err.value.line_number == 1


def test_unknown_sense_rejected():
    record = document_to_record(make_demo_document())
    record["annotations"]["relations"][0][1] = "Foo"
    with pytest.raises(CorpusFormatError) as err:
        document_from_record(record, line_number=3)
    assert "Foo" in str(err.value)


def test_document_validation_catches_bad_structure():
    doc = make_demo_document()
    bad = type(doc)(id="x", sentences=(doc.sentences[1],), label=None)
    with pytest.raises(DocumentStructureError):
        bad.validate()


def test_span_outside_sentence_rejected():
    record = document_to_record(make_demo_document())
    record["annotations"]["nouns"][0] = [1, [0, 99], "John"]
    with pytest.raises(CorpusFormatError):
        document_from_record(record)


def test_a_repeated_id_names_both_lines(tmp_path):
    demo = make_demo_document()
    path = tmp_path / "corpus.jsonl"
    write_corpus([demo, *synth_generate(2, seed=1), demo], path)
    with pytest.raises(CorpusFormatError) as err:
        read_corpus(path)
    assert err.value.line_number == 4
    assert str(err.value) == ("line 4: document id 'demo-0001' is already "
                              "the id of line 1")


def test_empty_lines_are_skipped(tmp_path):
    good = dumps_canonical(document_to_record(make_demo_document()))
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"\n{good}\n\n", encoding="utf-8")
    assert len(read_corpus(path)) == 1


def _set(path, value):
    """A mutation of a record: the item at path (keys and indices) := value."""
    def mutate(record):
        *parents, last = path
        for key in parents:
            record = record[key]
        record[last] = value
    return mutate


# (case, mutation, message after "line 3: "). The first seven messages are
# the ones every earlier version of the parser gave.
MALFORMED = [
    ("unknown kind", _set(["annotations", "relations", 0, 2], "sideways"),
     "'sideways' is not a valid RelationKind"),
    ("list-valued kind", _set(["annotations", "relations", 0, 2], ["explicit"]),
     "\"['explicit']\" is not a valid RelationKind"),
    ("unknown direction", _set(["annotations", "relations", 0, 3], "because"),
     "'because' is not a valid CauseDirection"),
    ("short relation", _set(["annotations", "relations", 0], [1, "Cause"]),
     "list index out of range"),
    ("non-integer span", _set(["annotations", "nouns", 0], [1, ["a", 1], "John"]),
     "invalid literal for int() with base 10: 'a'"),
    ("null sentences", _set(["sentences"], None),
     "'NoneType' object is not iterable"),
    ("bad label", _set(["label"], "great"),
     "unknown coherence label 'great'; expected one of "
     "['high', 'low', 'medium']"),
    ("list annotations", _set(["annotations"], [1]),
     "'annotations' must be an object, got an array"),
    ("string annotations", _set(["annotations"], "x"),
     "'annotations' must be an object, got a string"),
    ("string tokens", _set(["sentences", 0, "tokens"], "ab"),
     "'tokens' of sentence 1 must be an array, got a string"),
    ("null nouns", _set(["annotations", "nouns"], None),
     "'annotations.nouns' must be an array, got null"),
    ("object coref links", _set(["annotations", "coref_links"], {"a": 1}),
     "'annotations.coref_links' must be an array, got an object"),
    ("string relations", _set(["annotations", "relations"], "x"),
     "'annotations.relations' must be an array, got a string"),
]


@pytest.mark.parametrize("mutate, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_field_names_its_line(tmp_path, mutate, message):
    good = document_to_record(make_demo_document())
    bad = copy.deepcopy(good)
    mutate(bad)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(dumps_canonical(dict(r, id=f"demo-{i}")) + "\n"
                            for i, r in enumerate((good, good, bad, good))),
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        read_corpus(path)
    assert err.value.line_number == 3
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("absent", [True, False])
def test_null_or_absent_annotations_are_empty(absent):
    record = document_to_record(make_demo_document())
    if absent:
        del record["annotations"]
    else:
        record["annotations"] = None
    doc = document_from_record(record)
    assert doc.annotations.nouns == doc.annotations.relations == ()


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_synth_corpus_roundtrips_and_parses_to_the_generated(tmp_path,
                                                              profile):
    """write -> read -> write is byte-identical, and the parsed documents
    equal the generated ones."""
    generated = synth_generate(60, seed=5, profile=profile)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_corpus(generated, first)
    parsed = read_corpus(first)
    write_corpus(parsed, second)
    assert second.read_bytes() == first.read_bytes()
    assert parsed == generated


def test_parsed_senses_are_the_registry_instances():
    registry = load_registry()
    record = document_to_record(make_demo_document())
    record["annotations"]["relations"][1][1] = " instantiation "  # normalized
    doc = document_from_record(record)
    assert doc.annotations.relations
    for rel in doc.annotations.relations:
        assert rel.sense is registry.lookup(rel.sense.name, rel.sense.kind)
        assert any(rel.sense is s for s in registry.all_senses())


def test_a_read_holds_each_distinct_token_surface_tag_and_span_once(
        tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(40, seed=6), path)
    docs = read_corpus(path)
    strings: dict[str, str] = {}
    spans: dict = {}
    occurrences = 0
    for doc in docs:
        values = [doc.domain_tag]
        for sent in doc.sentences:
            values.extend(sent.tokens)
        for noun in doc.annotations.nouns:
            values.append(noun.surface)
            assert spans.setdefault(noun.span, noun.span) is noun.span
        for a, b in doc.annotations.coref_links:
            assert spans.setdefault(a.span, a.span) is a.span
            assert spans.setdefault(b.span, b.span) is b.span
        for value in values:
            assert strings.setdefault(value, value) is value
        occurrences += len(values)
    # values repeat across documents, so the checks above bite
    assert 4 * len(strings) < occurrences
    assert len({id(d.annotations.nouns[0].span) for d in docs}) < len(docs)


def test_a_read_keeps_at_most_two_bytes_per_corpus_byte(tmp_path):
    """Sharing strings and spans halves what a parsed corpus holds: 3.1
    bytes per corpus byte with a str per token occurrence, 1.5 shared."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(300, seed=1, profile="balanced"), path)
    tracemalloc.start()
    try:
        docs = read_corpus(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(docs) == 300
    assert kept <= 2 * path.stat().st_size


def test_a_record_alone_parses_as_in_a_read_and_shares_within_itself(
        tmp_path):
    generated = synth_generate(12, seed=3)
    path = tmp_path / "corpus.jsonl"
    write_corpus(generated, path)
    alone = [document_from_record(document_to_record(doc))
             for doc in generated]
    assert alone == read_corpus(path) == generated
    tokens = {}
    for sent in alone[0].sentences:
        for token in sent.tokens:
            assert tokens.setdefault(token, token) is token
    # values pass through str first: 1 and true read as their text and do
    # not meet as keys of the table
    record = document_to_record(make_demo_document())
    record["sentences"][0]["tokens"][:3] = [1, True, "1"]
    tokens = document_from_record(record).sentences[0].tokens
    assert tokens[:3] == ("1", "True", "1") and tokens[0] is tokens[2]


_FUZZ_RECORDS = [document_to_record(doc) for doc in synth_generate(3, seed=4)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_line_ends_in_documents_or_an_error_naming_it(
        tmp_path_factory, data):
    """One line of a three-document corpus, with a node of its JSON
    replaced by any JSON value, one character replaced or the line cut
    short, or one of its bytes replaced by a byte that is never UTF-8,
    reads to its documents or raises CorpusFormatError naming that line
    (or, for an id a later line repeats, naming it as the first)."""
    lines = [dumps_canonical(record) for record in _FUZZ_RECORDS]
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(["value", "character", "cut", "byte"]))
    if kind == "value":
        path = data.draw(st.sampled_from(list(json_paths(_FUZZ_RECORDS[k]))))
        lines[k] = json.dumps(replaced_at(_FUZZ_RECORDS[k], path,
                                          data.draw(JSON_VALUES)))
    else:
        i = data.draw(st.integers(0, len(lines[k]) - 1), label="position")
        if kind == "character":
            lines[k] = lines[k][:i] + data.draw(st.characters().filter(
                lambda c: c not in "\r\n")) + lines[k][i + 1:]
        elif kind == "byte":  # the lines are ASCII: one character, one byte
            bad = data.draw(st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)]))
            lines[k] = lines[k][:i] + chr(0xDC00 + bad) + lines[k][i + 1:]
        else:
            lines[k] = lines[k][:i]
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    # surrogateescape writes the escaped byte back as itself
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8",
                                                      "surrogateescape"))
    try:
        docs = read_corpus(path)
    except CorpusFormatError as err:
        assert (err.line_number == k + 1
                or f"already the id of line {k + 1}" in str(err)), str(err)
    else:  # a line cut to nothing is a blank line, which the reader skips
        assert kind != "byte"
        assert len(docs) == (3 if lines[k].strip() else 2)
