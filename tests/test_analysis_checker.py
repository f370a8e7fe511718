"""Checker machinery tests: suppressions, reporters, CLI exit codes.

Covers the parts of the lint gate that are not individual rules: the
``# repro: allow[...]`` pragma lifecycle (honored, merged, flagged when
stale), the parse-error finding, the text/JSON reporters (including the
versioned-schema round trip), and the CLI contract CI relies on
(exit 0 clean, exit 1 dirty, suppressed findings don't fail the gate).
"""

import json
from textwrap import dedent

import pytest

from repro import cli
from repro.analysis import (
    JSON_FORMAT_VERSION,
    LintConfig,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    result_from_json,
)
from repro.analysis.context import module_name_for, parse_suppressions
from repro.analysis.findings import Finding
from repro.analysis.rules.atomic import NonAtomicReadModifyWrite

CONFIG = LintConfig(
    shared_classes=frozenset({"Widget"}),
    frozen_classes=frozenset(),
    parity_modules=("repro.fake",),
)

DIRTY = """
class Widget:
    def bump(self):
        self.count += 1
"""

CLEAN = """
class Widget:
    def read(self):
        return self.count
"""


def check(source, *, rules=None):
    return lint_source(
        dedent(source),
        path="src/repro/fake/widget.py",
        module="repro.fake.widget",
        config=CONFIG,
        rules=rules,
    )


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_pragma_suppresses_own_line(self):
        result = check(
            """
            class Widget:
                def bump(self):
                    self.count += 1  # repro: allow[RPR004] benign counter
            """
        )
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["RPR004"]
        assert result.clean

    def test_standalone_pragma_covers_next_code_line(self):
        result = check(
            """
            class Widget:
                def bump(self):
                    # repro: allow[RPR004] benign counter
                    self.count += 1
            """
        )
        assert result.findings == []
        assert [f.code for f in result.suppressed] == ["RPR004"]

    def test_pragma_for_other_code_does_not_suppress(self):
        result = check(
            """
            class Widget:
                def bump(self):
                    self.count += 1  # repro: allow[RPR001]
            """
        )
        # The RPR004 finding survives, and the RPR001 allow is stale.
        assert sorted(f.code for f in result.findings) == ["RPR000", "RPR004"]
        assert result.suppressed == []

    def test_unused_pragma_is_flagged_at_comment_line(self):
        result = check(
            """
            class Widget:
                # repro: allow[RPR004] nothing here violates anything
                def read(self):
                    return self.count
            """
        )
        assert [f.code for f in result.findings] == ["RPR000"]
        assert result.findings[0].line == 3
        assert "stale" in result.findings[0].message

    def test_unused_pragma_not_flagged_on_partial_rule_run(self):
        # A single-rule fixture run must not false-flag pragmas that
        # belong to rules not being run.
        result = check(
            """
            class Widget:
                def grow(self):
                    self._items.append(1)  # repro: allow[RPR003]
            """,
            rules=[NonAtomicReadModifyWrite()],
        )
        assert result.findings == []

    def test_multi_code_pragma_suppresses_each_listed_code(self):
        result = check(
            """
            class Widget:
                def bump(self):
                    # repro: allow[RPR004, RPR001]
                    self.count += 1
            """
        )
        # RPR004 suppressed; the RPR001 half of the pragma is stale.
        assert [f.code for f in result.findings] == ["RPR000"]
        assert [f.code for f in result.suppressed] == ["RPR004"]

    def test_parse_suppressions_merges_duplicates(self):
        pragmas = parse_suppressions(
            dedent(
                """
                # repro: allow[RPR001]
                x = 1  # repro: allow[RPR002]
                """
            )
        )
        assert set(pragmas) == {3}
        assert pragmas[3].codes == ("RPR001", "RPR002")
        assert pragmas[3].comment_line == 2


# ----------------------------------------------------------------------
# Parse errors
# ----------------------------------------------------------------------
def test_syntax_error_is_a_finding_not_a_crash():
    result = check("def broken(:\n")
    assert [f.code for f in result.findings] == ["RPR900"]
    assert not result.clean
    assert result.files == 1


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_report_lines_and_summary(self):
        result = check(DIRTY)
        text = render_text(result)
        lines = text.splitlines()
        assert lines[0].startswith("src/repro/fake/widget.py:4:9: RPR004 ")
        assert lines[0].endswith("[Widget.bump]")
        assert lines[-1] == "1 finding (0 suppressed) in 1 file(s)"

    def test_text_report_show_suppressed(self):
        result = check(
            """
            class Widget:
                def bump(self):
                    self.count += 1  # repro: allow[RPR004] benign
            """
        )
        assert "0 findings (1 suppressed)" in render_text(result)
        assert "(suppressed)" not in render_text(result)
        shown = render_text(result, show_suppressed=True)
        assert "RPR004" in shown and "(suppressed)" in shown

    def test_json_schema_round_trips(self):
        result = check(DIRTY)
        document = json.loads(render_json(result))
        assert document["version"] == JSON_FORMAT_VERSION
        assert document["tool"] == "repro-lint"
        assert document["files"] == 1
        assert document["counts"] == {"RPR004": 1}
        rebuilt = result_from_json(render_json(result))
        assert rebuilt.findings == result.findings
        assert rebuilt.suppressed == result.suppressed
        assert rebuilt.files == result.files
        assert [f.message for f in rebuilt.findings] == [
            f.message for f in result.findings
        ]

    def test_json_reader_rejects_unknown_version(self):
        document = json.loads(render_json(check(CLEAN)))
        document["version"] = JSON_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported lint report version"):
            result_from_json(json.dumps(document))

    def test_finding_round_trip_and_render(self):
        finding = Finding(
            path="a.py", line=3, col=7, code="RPR001",
            message="live view escapes", symbol="Widget.items",
        )
        assert Finding.from_dict(finding.to_dict()) == finding
        assert finding.render() == "a.py:3:7: RPR001 live view escapes [Widget.items]"


# ----------------------------------------------------------------------
# File discovery and module naming
# ----------------------------------------------------------------------
def test_lint_paths_walks_directories_deterministically(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")
    (package / "a.py").write_text("def broken(:\n", encoding="utf-8")
    pycache = package / "__pycache__"
    pycache.mkdir()
    (pycache / "a.py").write_text("def broken(:\n", encoding="utf-8")
    result = lint_paths([str(package)])
    assert result.files == 2  # __pycache__ skipped
    assert [f.code for f in result.findings] == ["RPR900"]
    assert result.findings[0].path == str(package / "a.py")


def test_module_name_for_anchors_at_repro_package():
    assert module_name_for("src/repro/core/index.py") == "repro.core.index"
    assert module_name_for("/abs/src/repro/engine/__init__.py") == "repro.engine"
    assert module_name_for("somewhere/fixture.py") == "fixture"


# ----------------------------------------------------------------------
# CLI contract (what CI runs)
# ----------------------------------------------------------------------
class TestCliLint:
    def write(self, tmp_path, source):
        target = tmp_path / "fixture.py"
        target.write_text(dedent(source), encoding="utf-8")
        return str(target)

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        path = self.write(tmp_path, "x = 1\n")
        assert cli.main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "0 findings (0 suppressed) in 1 file(s)" in out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            """
            def shard_of(key, shards):
                return hash(key) % shards
            """,
        )
        assert cli.main(["lint", path]) == 1
        assert "RPR002" in capsys.readouterr().out

    def test_exit_zero_when_all_findings_suppressed(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            """
            def shard_of(key, shards):
                return hash(key) % shards  # repro: allow[RPR002] test fixture
            """,
        )
        assert cli.main(["lint", path]) == 0
        assert "0 findings (1 suppressed)" in capsys.readouterr().out

    def test_json_format_and_artifact_file(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            """
            def shard_of(key, shards):
                return hash(key) % shards
            """,
        )
        artifact = tmp_path / "report.json"
        assert cli.main(
            ["lint", path, "--format", "json", "--json-output", str(artifact)]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts"] == {"RPR002": 1}
        on_disk = result_from_json(artifact.read_text(encoding="utf-8"))
        assert [f.code for f in on_disk.findings] == ["RPR002"]

    def test_rules_listing(self, capsys):
        assert cli.main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
            "RPR008",
        ):
            assert code in out
