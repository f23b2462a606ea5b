"""PDTB 3.0-style discourse relation sense registry.

The registry is embedded constant data: 15 explicit senses and 15 implicit
senses (14 frequent types plus NoRel for pairs with no relation at all),
each with its fraction in the parser training corpus. The fractions are
metadata consumed only by the synthetic-data generator, never by the model.

The registry holds one RelationSense per (kind, name): lookup() and
all_senses() return those instances, so parsed documents share them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RelationKind(enum.Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; it runs in C where Enum's hashes the name.
    __hash__ = object.__hash__


class CauseDirection(enum.Enum):
    """Directional reading of a Cause relation: the second argument is either
    the cause ("reason") or the effect ("result")."""

    REASON = "reason"
    RESULT = "result"

    __hash__ = object.__hash__  # see RelationKind


@dataclass(frozen=True, slots=True)
class RelationSense:
    """A discourse relation sense, identified by (name, kind).

    Names carry the registry's exact capitalization/hyphenation; construction
    goes through RelationSenseRegistry.lookup so arbitrary casings normalize
    to the canonical spelling and every caller shares the registry's object.
    """

    name: str
    kind: RelationKind
    # the lowercase presentation form prompt rendering uses, formed once;
    # not part of equality, hashing or repr
    render: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "render", self.name.lower())


# (name, training-corpus fraction); table order is the canonical order.
_EXPLICIT = (
    ("Asynchronous", 0.0869),
    ("Cause", 0.0787),
    ("Concession", 0.1994),
    ("Condition", 0.0599),
    ("Conjunction", 0.3655),
    ("Contrast", 0.0458),
    ("Disjunction", 0.0123),
    ("Instantiation", 0.0130),
    ("Level-of-detail", 0.0101),
    ("Manner", 0.0123),
    ("Negative-condition", 0.0054),
    ("Purpose", 0.0163),
    ("Similarity", 0.0042),
    ("Substitution", 0.0096),
    ("Synchronous", 0.0807),
)

_IMPLICIT = (
    ("Asynchronous", 0.0464),
    ("Cause", 0.2423),
    ("Cause+Belief", 0.0082),
    ("Concession", 0.0672),
    ("Condition", 0.0085),
    ("Conjunction", 0.2084),
    ("Contrast", 0.0386),
    ("Equivalence", 0.0121),
    ("Instantiation", 0.0684),
    ("Level-of-detail", 0.1460),
    ("Manner", 0.0074),
    ("Purpose", 0.0331),
    ("Substitution", 0.0134),
    ("Synchronous", 0.0235),
    ("NoRel", 0.0818),
)

NO_RELATION_NAME = "NoRel"


class UnknownSenseError(ValueError):
    """Raised when a sense name is not in the registry for its kind."""

    def __init__(self, name: str, kind: RelationKind, valid: tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.valid = valid
        super().__init__(
            f"unknown {kind.value} relation sense {name!r}; "
            f"valid senses: {', '.join(valid)}")


class RelationSenseRegistry:
    """Ordered sense inventories per kind plus their corpus priors."""

    def __init__(self) -> None:
        self._names: dict[RelationKind, tuple[str, ...]] = {
            RelationKind.EXPLICIT: tuple(n for n, _ in _EXPLICIT),
            RelationKind.IMPLICIT: tuple(n for n, _ in _IMPLICIT),
        }
        self._priors: dict[RelationKind, dict[str, float]] = {
            RelationKind.EXPLICIT: dict(_EXPLICIT),
            RelationKind.IMPLICIT: dict(_IMPLICIT),
        }
        self._all = tuple(RelationSense(n, kind)
                          for kind in (RelationKind.EXPLICIT,
                                       RelationKind.IMPLICIT)
                          for n in self._names[kind])
        self._index = {sense: k for k, sense in enumerate(self._all)}
        self._lowercase: dict[RelationKind, dict[str, RelationSense]] = {
            kind: {s.name.lower(): s for s in self._all if s.kind is kind}
            for kind in self._names}
        # (canonical name, kind value) -> sense, as corpus entries spell it
        self._entries = {(s.name, s.kind.value): s for s in self._all}

    def names(self, kind: RelationKind) -> tuple[str, ...]:
        return self._names[kind]

    def prior(self, sense: RelationSense) -> float:
        return self._priors[sense.kind][sense.name]

    def priors(self, kind: RelationKind) -> dict[str, float]:
        return dict(self._priors[kind])

    def lookup(self, name: str, kind: RelationKind) -> RelationSense:
        """The registry's sense for a case-insensitive name; raises
        UnknownSenseError listing valid senses."""
        sense = self._lowercase[kind].get(name.strip().lower())
        if sense is None:
            raise UnknownSenseError(name, kind, self._names[kind])
        return sense

    def lookup_entry(self, name, kind) -> RelationSense:
        """The sense a corpus entry's (name, kind value) pair names: one
        dict hit for the canonical spellings, otherwise
        lookup(str(name), RelationKind(str(kind))) with its errors."""
        try:
            return self._entries[(name, kind)]
        except (KeyError, TypeError):
            return self.lookup(str(name), RelationKind(str(kind)))

    def all_senses(self) -> tuple[RelationSense, ...]:
        """Every sense in canonical order: explicit block, then implicit."""
        return self._all

    def sense_index(self, sense: RelationSense) -> int:
        """Stable embedding-row index of a sense in all_senses() order."""
        try:
            return self._index[sense]
        except KeyError:
            raise UnknownSenseError(sense.name, sense.kind,
                                    self._names[sense.kind]) from None


_REGISTRY = RelationSenseRegistry()


def load_registry() -> RelationSenseRegistry:
    """Return the embedded sense registry (shared immutable instance)."""
    return _REGISTRY
