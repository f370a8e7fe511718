"""String registries for the pluggable pieces of a detection run.

Everything a :class:`~repro.api.spec.RunSpec` has to name survives a
round trip through JSON as a plain string, so every pluggable family
gets a registry mapping names to implementations:

* :data:`HEURISTICS` — description-selection heuristics (Sec. 4.1),
  instantiated from specs like ``kclosest:6`` or unions such as
  ``rdistant:1+ancestors:1``;
* :data:`CONDITIONS` — selection-refining conditions (Sec. 4.2),
  named ``cm``, ``sdt``, ``me``, ``se`` and combined with commas
  (ANDed, Combination 2);
* :data:`SEMANTICS` — similar-pair semantics of the similarity measure
  (``matching`` | ``all-pairs``).

Registries are open: extensions may :meth:`Registry.register` their own
heuristics or conditions and refer to them from specs and the CLI
without touching this package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from .._lazy import resolve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.conditions import Condition
    from ..core.heuristics import Heuristic


class _Reference(str):
    """A ``"module:attr"`` entry standing in for the object it names."""


class Registry:
    """A named string -> implementation mapping with aliases.

    Lookups raise :class:`LookupError` naming the known entries, so a
    typo in a spec or on the command line fails with the full menu.
    The built-in entries are deferred (:meth:`defer`): naming, listing
    and validating them imports nothing, a lookup imports the one
    module that defines the entry.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._values: dict[str, object] = {}
        self._canonical: dict[str, str] = {}

    def register(self, name: str, value: object, aliases: tuple[str, ...] = ()):
        """Add an entry (chainable decorator-style: returns ``value``)."""
        for key in (name, *aliases):
            if not key:
                raise ValueError(f"{self.kind} name must be non-empty")
            if key in self._canonical:
                raise ValueError(f"{self.kind} {key!r} is already registered")
        self._values[name] = value
        self._canonical[name] = name
        for alias in aliases:
            self._canonical[alias] = name
        return value

    def defer(self, name: str, reference: str, aliases: tuple[str, ...] = ()):
        """Add an entry by ``"module:attr"`` reference; the module is
        imported by the first :meth:`get` of the entry."""
        self.register(name, _Reference(reference), aliases)

    def get(self, name: str) -> object:
        value = self._values[self.canonical_name(name)]
        return resolve(value) if type(value) is _Reference else value

    def canonical_name(self, name: str) -> str:
        """Resolve an alias to its canonical name (LookupError if unknown)."""
        canonical = self._canonical.get(name)
        if canonical is None:
            raise LookupError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        return canonical

    def names(self) -> list[str]:
        """Canonical names, sorted."""
        return sorted(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._canonical

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return ((name, self.get(name)) for name in self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


#: Heuristic factories: ``name -> (int parameter) -> Heuristic``.
HEURISTICS = Registry("heuristic")
_HEURISTICS_MODULE = "repro.core.heuristics"
HEURISTICS.defer("kclosest", f"{_HEURISTICS_MODULE}:KClosestDescendants", aliases=("k",))
HEURISTICS.defer("rdistant", f"{_HEURISTICS_MODULE}:RDistantDescendants", aliases=("r",))
HEURISTICS.defer("ancestors", f"{_HEURISTICS_MODULE}:RDistantAncestors", aliases=("a",))

#: Condition predicates by their paper names.
CONDITIONS = Registry("condition")
for _condition in ("cm", "sdt", "me", "se"):
    CONDITIONS.defer(_condition, f"repro.core.conditions:c_{_condition}")

#: Similar-pair semantics accepted by ``DogmatixConfig.similar_semantics``.
SEMANTICS = Registry("semantics")
SEMANTICS.register("matching", "matching")
SEMANTICS.register("all-pairs", "all-pairs")


def heuristic_from_spec(spec: str) -> Heuristic:
    """Build a heuristic from a spec string.

    One term looks like ``name:number`` (``kclosest:6``, ``rdistant:2``,
    ``ancestors:1``, or the one-letter aliases ``k``/``r``/``a``);
    ``+``-joined terms are unioned (Combination 1's OR).
    """
    terms = [term.strip() for term in spec.split("+")]
    built: list[Heuristic] = []
    for term in terms:
        name, _, raw = term.partition(":")
        if not raw or not raw.isdigit():
            raise ValueError(f"heuristic {term!r} must look like name:number")
        factory: Callable[[int], Heuristic] = HEURISTICS.get(name)  # type: ignore[assignment]
        built.append(factory(int(raw)))
    combined = built[0]
    for heuristic in built[1:]:
        combined = resolve(f"{_HEURISTICS_MODULE}:h_or")(combined, heuristic)
    return combined


def condition_from_spec(spec: Optional[str]) -> Optional[Condition]:
    """Build a condition from a comma list (ANDed); None/empty -> None."""
    if not spec:
        return None
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        return None
    c_and = resolve("repro.core.conditions:c_and")
    return c_and(*(CONDITIONS.get(name) for name in names))  # type: ignore[misc]
