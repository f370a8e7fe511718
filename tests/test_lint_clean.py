"""Tier-1 gate: the invariant checker finds nothing in ``src/``.

This is the in-suite twin of the CI ``lint`` job: every commit must
leave the tree free of unsuppressed findings.  A deliberate exception
belongs next to the code as a justified ``# repro: allow[RPR0xx]``
pragma, never as a relaxation here.
"""

from pathlib import Path

from repro.analysis import lint_paths, render_text

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def test_source_tree_has_zero_findings():
    result = lint_paths([str(SRC_ROOT)])
    assert result.files > 50  # the walk really covered the package
    assert result.findings == [], "\n" + render_text(result)


def test_deliberate_exceptions_are_suppressed_not_silent():
    # The tree's known benign races (informational counters, writer-
    # lock-serialized mutations) are documented via pragmas — if this
    # count drops to zero the pragmas were deleted without the checker
    # noticing, and if it balloons someone is suppressing instead of
    # fixing.  Update deliberately on either kind of change.
    result = lint_paths([str(SRC_ROOT)])
    assert 1 <= len(result.suppressed) <= 4
    assert all(f.code.startswith("RPR") for f in result.suppressed)
