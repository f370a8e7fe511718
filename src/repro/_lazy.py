"""Import on use: the import graph follows the call graph.

A process runs one operation — a warm open, a batch ``dedup``, a CLI
sub-command — and pays for every module it compiles, so nothing in
``src/`` is imported before something calls into it.  Two pieces, one
reference format (``"module:attr"``; in a :func:`lazy_exports` table a
bare ``"module"`` means the attribute carries the table key's own name):

* :func:`lazy_exports` — what every package ``__init__`` calls instead
  of importing its submodules.  ``__all__`` is the table's names; a name is imported
  from its *defining submodule* on first access (PEP 562's
  ``__getattr__`` / ``__dir__``, as methods of the package's module
  class) and published into the package namespace by one assignment,
  so later accesses are plain attribute reads.
* :func:`resolve` — a deferred collaborator at its use site, for code
  that runs more than once per process (``detect()``, ``extend()``,
  ``freeze()``): the first call imports the module, every later one is
  a dict hit and an attribute read, so no hot path executes an import
  statement — and a test that patches the defining module is still
  seen.

**Who may import a package ``__init__``:** callers outside ``src/``
(tests, ``bench/``, examples, users).  Modules inside ``src/`` import
from the defining submodule, never through a package — lint rule RPR008
holds the entry-path modules to it.
"""

from __future__ import annotations

import sys
from importlib import import_module

_ModuleType = type(sys)

#: Every module :func:`resolve` has imported, by name.  Not a view of
#: ``sys.modules``: that also holds modules another thread is still
#: executing, ``import_module`` returns only complete ones.
_LOADED: dict[str, object] = {}


def resolve(reference: str) -> object:
    """The object ``"package.module:attr"`` names, its module imported
    on the first lookup and remembered for the process."""
    name, _, attr = reference.partition(":")
    try:
        module = _LOADED[name]
    except KeyError:
        module = _LOADED[name] = import_module(name)
    return getattr(module, attr)


def preload(*names: str) -> None:
    """Import ``names`` now, so that no later :func:`resolve` of them —
    from whichever thread — imports anything (the daemon's start-up)."""
    for name in names:
        _LOADED[name] = import_module(name)


class _LazyPackage(_ModuleType):
    """A package whose exports are imported on first access.

    ``__getattr__`` runs only when the normal lookup misses, i.e. once
    per name.  ``__setattr__`` keeps an export ahead of a submodule of
    the same name (``xmlkit.serialize``, ``strings.jaro``): the import
    system binds every freshly loaded submodule onto its parent, which
    would otherwise shadow the function the package exports — as
    ``from .serialize import serialize`` in an eager ``__init__`` made
    sure it never did.
    """

    def __getattr__(self, name: str) -> object:
        target = self.__dict__["__exports__"].get(name)
        if target is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        module, attr = target
        value = getattr(import_module(module), attr)
        self.__dict__[name] = value
        return value

    def __setattr__(self, name: str, value: object) -> None:
        target = self.__dict__["__exports__"].get(name)
        if (
            target is not None
            and isinstance(value, _ModuleType)
            and value.__name__ == target[0]
        ):
            value = getattr(value, target[1])
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted(set(self.__dict__) | set(self.__dict__["__exports__"]))


def lazy_exports(package: str, exports: dict[str, str]) -> list[str]:
    """Make ``package`` (a module's ``__name__``) resolve ``exports`` on
    first access; returns the exported names, sorted — its ``__all__``.

    ``exports`` maps each lazily exported name to ``"submodule"`` or
    ``"submodule:attr"``, relative to the package (``"api.session"``
    from the root): one table says what a package exports and where
    from.  A name the ``__init__`` defines itself stays out of the table
    and is appended to ``__all__`` there.
    """
    module = sys.modules[package]
    table = {}
    for name, target in exports.items():
        submodule, _, attr = target.partition(":")
        table[name] = (f"{package}.{submodule}", attr or name)
    module.__dict__["__exports__"] = table
    module.__class__ = _LazyPackage
    return sorted(table)
