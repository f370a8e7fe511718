"""CLI tests (in-process via repro.cli.main)."""

from pathlib import Path

import pytest

from repro.cli import main, build_parser, _parse_heuristic, _parse_condition
from repro.core import KClosestDescendants, RDistantDescendants
from repro.datagen import PAPER_EXAMPLE_XML, PAPER_EXAMPLE_XSD, paper_example_mapping
from repro.xmlkit import parse


@pytest.fixture()
def example_files(tmp_path):
    document = tmp_path / "movies.xml"
    document.write_text(PAPER_EXAMPLE_XML, encoding="utf-8")
    schema = tmp_path / "movies.xsd"
    schema.write_text(PAPER_EXAMPLE_XSD, encoding="utf-8")
    mapping = tmp_path / "mapping.xml"
    mapping.write_text(paper_example_mapping().to_xml(), encoding="utf-8")
    return document, schema, mapping


class TestArgumentParsing:
    def test_heuristic_kclosest(self):
        heuristic = _parse_heuristic("kclosest:6")
        assert isinstance(heuristic, KClosestDescendants)
        assert heuristic.k == 6

    def test_heuristic_rdistant(self):
        heuristic = _parse_heuristic("rdistant:2")
        assert isinstance(heuristic, RDistantDescendants)
        assert heuristic.radius == 2

    def test_heuristic_union(self):
        heuristic = _parse_heuristic("rdistant:1+ancestors:1")
        from repro.core import CombinedHeuristic

        assert isinstance(heuristic, CombinedHeuristic)
        assert heuristic.operator == "or"

    def test_heuristic_malformed(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_heuristic("kclosest")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_heuristic("nope:3")

    def test_conditions(self):
        assert _parse_condition(None) is None
        assert _parse_condition("sdt") is not None
        combined = _parse_condition("sdt,me,se")
        assert combined is not None

    def test_conditions_unknown(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_condition("sdt,zzz")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDedupCommand:
    def test_dedup_to_stdout(self, example_files, capsys):
        document, schema, mapping = example_files
        code = main([
            "dedup", str(document),
            "--mapping", str(mapping),
            "--type", "MOVIE",
            "--schema", str(schema),
            "--heuristic", "rdistant:2",
            "--theta-tuple", "0.55",
            "--no-filter",
        ])
        assert code == 0
        out = capsys.readouterr().out
        result = parse(out)
        assert result.root.tag == "dupclusters"
        (cluster,) = result.root.find_all("dupcluster")
        assert len(cluster.find_all("duplicate")) == 2

    def test_dedup_to_file(self, example_files, tmp_path, capsys):
        document, schema, mapping = example_files
        output = tmp_path / "out.xml"
        code = main([
            "dedup", str(document),
            "--mapping", str(mapping),
            "--type", "MOVIE",
            "--theta-tuple", "0.55",
            "--output", str(output),
        ])
        assert code == 0
        assert parse(output.read_text()).root.tag == "dupclusters"

    def test_dedup_explain(self, example_files, capsys):
        document, schema, mapping = example_files
        code = main([
            "dedup", str(document),
            "--mapping", str(mapping),
            "--type", "MOVIE",
            "--theta-tuple", "0.55",
            "--no-filter",
            "--explain",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "similar:" in err


class TestSchemaPairing:
    def test_more_schemas_than_documents_errors(self, example_files, capsys):
        document, schema, mapping = example_files
        with pytest.raises(SystemExit) as excinfo:
            main([
                "dedup", str(document),
                "--mapping", str(mapping),
                "--type", "MOVIE",
                "--schema", str(schema),
                "--schema", str(schema),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "pair with documents positionally" in err

    def test_pairing_rule_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["dedup", "--help"])
        out = capsys.readouterr().out
        assert "positionally" in out
        assert "more --schema flags than" in " ".join(out.split())


class TestSpecWorkflow:
    @pytest.fixture()
    def spec_dir(self, tmp_path, capsys):
        assert main(["example", "--write", str(tmp_path)]) == 0
        capsys.readouterr()  # swallow the path announcement
        return tmp_path

    def test_example_write_emits_files(self, spec_dir):
        for name in ("movies.xml", "movies.xsd", "mapping.xml", "run.json"):
            assert (spec_dir / name).is_file()

    def test_dedup_from_spec(self, spec_dir, capsys):
        code = main(["dedup", "--spec", str(spec_dir / "run.json")])
        assert code == 0
        result = parse(capsys.readouterr().out)
        assert result.root.tag == "dupclusters"
        (cluster,) = result.root.find_all("dupcluster")
        assert len(cluster.find_all("duplicate")) == 2

    def test_parent_spec_with_batch_settings_writes_the_same_bytes(
        self, spec_dir, capsys
    ):
        """A spec file written while ``batch_size`` and
        ``ingest_workers`` were fields runs as one without them."""
        import json

        assert main(["dedup", "--spec", str(spec_dir / "run.json")]) == 0
        expected = capsys.readouterr().out
        data = json.loads((spec_dir / "run.json").read_text())
        old = spec_dir / "old.json"
        old.write_text(json.dumps({**data, "batch_size": 512, "ingest_workers": 2}))
        assert main(["dedup", "--spec", str(old)]) == 0
        assert capsys.readouterr().out == expected

    def test_spec_flags_override(self, spec_dir, capsys):
        """An impossible theta_cand override yields zero clusters."""
        code = main([
            "dedup", "--spec", str(spec_dir / "run.json"),
            "--theta-cand", "0.99",
        ])
        assert code == 0
        result = parse(capsys.readouterr().out)
        assert result.root.find_all("dupcluster") == []

    def test_parent_shaped_spec_writes_the_default_bytes(self, spec_dir, capsys):
        """A spec written while the shard backend existed — shard
        backend, ``shard_by``, ``filter_in_workers`` — still runs, as
        the process backend, and writes the bytes the default spec
        writes (the example spec disables the filter, so both runs
        enable it)."""
        import json

        spec_path = spec_dir / "run.json"
        data = json.loads(spec_path.read_text())
        data["use_object_filter"] = True
        spec_path.write_text(json.dumps(data))
        assert main(["dedup", "--spec", str(spec_path)]) == 0
        default_out = capsys.readouterr().out
        legacy_path = spec_dir / "legacy.json"
        legacy_path.write_text(json.dumps({
            **data, "workers": 2, "backend": "shard", "shard_by": "object",
            "filter_in_workers": True,
        }))
        assert main(["dedup", "--spec", str(legacy_path)]) == 0
        assert capsys.readouterr().out == default_out

    def test_all_pairs_spec_writes_the_blocked_bytes(self, spec_dir, capsys):
        """``use_blocking: false`` scores every pair and finds what the
        blocked run finds: blocking is lossless."""
        import json

        spec_path = spec_dir / "run.json"
        assert main(["dedup", "--spec", str(spec_path)]) == 0
        blocked = capsys.readouterr().out
        all_pairs = spec_dir / "all_pairs.json"
        all_pairs.write_text(
            json.dumps({**json.loads(spec_path.read_text()), "use_blocking": False})
        )
        assert main(["dedup", "--spec", str(all_pairs)]) == 0
        assert capsys.readouterr().out == blocked

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shard-by", "block"],
            ["--filter-in-workers"],
            ["--batch-size", "512"],
            ["--ingest-workers", "2"],
            ["--workers", "2"],
        ],
        ids=[
            "shard-by", "filter-in-workers", "batch-size", "ingest-workers",
            "workers",
        ],
    )
    def test_removed_execution_flags_are_argparse_errors(
        self, spec_dir, capsys, flags
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--spec", str(spec_dir / "run.json"), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"batch_size": 0},
            {"batch_size": -3},
            {"backend": "serial", "workers": 2},
        ],
        ids=["batch_size-0", "batch_size-negative", "serial-two-workers"],
    )
    def test_bad_execution_field_cannot_load(self, spec_dir, capsys, fields):
        """A bad execution field is a usage error naming the spec, not a
        traceback from building the session."""
        import json

        spec_path = spec_dir / "run.json"
        data = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**data, **fields}))
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--spec", str(spec_path)])
        assert excinfo.value.code == 2
        assert "cannot load spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--theta-cand", "2"],
            ["--theta-cand", "nan"],
            ["--theta-cand", "x"],
            ["--theta-tuple", "-1"],
        ],
        ids=["cand-2", "cand-nan", "cand-text", "tuple-negative"],
    )
    def test_out_of_range_threshold_flag_is_one_usage_line(
        self, spec_dir, capsys, flags
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--spec", str(spec_dir / "run.json"), *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro dedup: error: argument {flags[0]}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"theta_cand": 2},
            {"theta_tuple": -1},
            {"possible_threshold": 0.9},
        ],
        ids=["cand-2", "tuple-negative", "possible-above-cand"],
    )
    def test_bad_threshold_in_spec_cannot_load(self, spec_dir, capsys, fields):
        import json

        spec_path = spec_dir / "run.json"
        data = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**data, **fields}))
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--spec", str(spec_path)])
        assert excinfo.value.code == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_theta_flag_below_the_specs_possible_threshold(
        self, spec_dir, capsys
    ):
        """Each value is in range, but the flag crosses the spec's
        possible band: one usage line, not a traceback."""
        import json

        spec_path = spec_dir / "run.json"
        data = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**data, "possible_threshold": 0.3}))
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--spec", str(spec_path), "--theta-cand", "0.2"])
        assert excinfo.value.code == 2
        assert "possible_threshold" in capsys.readouterr().err

    def test_spec_conflicts_with_documents(self, spec_dir, example_files, capsys):
        document, _, _ = example_files
        with pytest.raises(SystemExit) as excinfo:
            main([
                "dedup", str(document),
                "--spec", str(spec_dir / "run.json"),
            ])
        assert excinfo.value.code == 2
        assert "--spec" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["dedup", "--spec", "/nonexistent/run.json"])
        assert "cannot load spec" in capsys.readouterr().err

    def test_heuristic_typo_clean_error(self, spec_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "dedup", "--spec", str(spec_dir / "run.json"),
                "--heuristic", "bogus:3",
            ])
        assert excinfo.value.code == 2
        assert "unknown heuristic" in capsys.readouterr().err

    def test_conditions_typo_clean_error(self, spec_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "dedup", "--spec", str(spec_dir / "run.json"),
                "--conditions", "sdt,zzz",
            ])
        assert excinfo.value.code == 2
        assert "unknown condition" in capsys.readouterr().err


class TestMatchCommand:
    @pytest.fixture()
    def spec_file(self, tmp_path, capsys):
        assert main(["example", "--write", str(tmp_path)]) == 0
        capsys.readouterr()
        return str(tmp_path / "run.json")

    def test_match_by_object_id(self, spec_file, capsys):
        assert main(["match", "--spec", spec_file, "--object-id", "0"]) == 0
        captured = capsys.readouterr()
        assert "/moviedoc/movie[2]" in captured.out
        assert "1 duplicate partner(s)" in captured.err

    def test_match_by_path(self, spec_file, capsys):
        code = main([
            "match", "--spec", spec_file, "--path", "/moviedoc/movie[2]",
        ])
        assert code == 0
        assert "/moviedoc/movie[1]" in capsys.readouterr().out

    def test_match_without_partner(self, spec_file, capsys):
        assert main(["match", "--spec", spec_file, "--object-id", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 duplicate partner(s)" in captured.err

    def test_match_needs_exactly_one_selector(self, spec_file, capsys):
        with pytest.raises(SystemExit):
            main(["match", "--spec", spec_file])
        assert "exactly one of" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([
                "match", "--spec", spec_file,
                "--object-id", "0", "--path", "/moviedoc/movie[1]",
            ])

    def test_match_object_id_out_of_range(self, spec_file, capsys):
        with pytest.raises(SystemExit):
            main(["match", "--spec", spec_file, "--object-id", "99"])
        assert "out of range" in capsys.readouterr().err

    def test_match_unknown_path(self, spec_file, capsys):
        with pytest.raises(SystemExit):
            main(["match", "--spec", spec_file, "--path", "/moviedoc/movie[9]"])
        assert "no candidate at path" in capsys.readouterr().err

    def test_match_direct_arguments(self, example_files, capsys):
        document, schema, mapping = example_files
        code = main([
            "match", str(document),
            "--mapping", str(mapping),
            "--type", "MOVIE",
            "--schema", str(schema),
            "--heuristic", "rdistant:2",
            "--theta-tuple", "0.55",
            "--no-filter",
            "--object-id", "1",
        ])
        assert code == 0
        assert "/moviedoc/movie[1]" in capsys.readouterr().out


class TestSuggestCommand:
    def test_suggest_with_inferred_schema(self, example_files, capsys):
        document, _, _ = example_files
        assert main(["suggest", str(document)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("/moviedoc/movie")

    def test_suggest_with_xsd(self, example_files, capsys):
        document, schema, _ = example_files
        assert main(["suggest", str(document), "--schema", str(schema)]) == 0
        assert "/moviedoc/movie" in capsys.readouterr().out

    def test_suggest_on_the_dblp_slice(self, capsys):
        """Named-character entities from the internal DTD, CRLF line
        ends, two kinds of record: the article ranks first."""
        document = Path(__file__).with_name("fixtures") / "dblp_slice.xml"
        assert main(["suggest", str(document)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("/dblp/bib/article ")


class TestMalformedXml:
    """A document that does not parse is a one-line error naming the
    file, exit status 2, from every command that reads one."""

    MALFORMED = "<moviedoc><movie></moviedoc>"

    @pytest.fixture()
    def spec_dir(self, tmp_path, capsys):
        assert main(["example", "--write", str(tmp_path)]) == 0
        (tmp_path / "movies.xml").write_text(self.MALFORMED, encoding="utf-8")
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize(
        "command",
        [["dedup"], ["match", "--object-id", "0"], ["index", "build"]],
        ids=["dedup", "match", "index-build"],
    )
    def test_spec_commands(self, spec_dir, capsys, command):
        store = ["--store", str(spec_dir / "store")] if command[0] == "index" else []
        code = main([*command, "--spec", str(spec_dir / "run.json"), *store])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro: error: {spec_dir / 'movies.xml'}: "
            "mismatched tag at line 1, column 19\n"
        )

    def test_suggest(self, spec_dir, capsys):
        assert main(["suggest", str(spec_dir / "movies.xml")]) == 2
        assert capsys.readouterr().err.startswith(
            f"repro: error: {spec_dir / 'movies.xml'}: mismatched tag"
        )

    def test_suggest_with_a_malformed_schema(self, spec_dir, capsys):
        schema = spec_dir / "broken.xsd"
        schema.write_text("<xs:schema>", encoding="utf-8")
        code = main(["suggest", str(spec_dir / "mapping.xml"), "--schema", str(schema)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"repro: error: {schema}: ")


class TestExampleCommand:
    def test_example_runs(self, capsys):
        assert main(["example"]) == 0
        captured = capsys.readouterr()
        assert "dupclusters" in captured.out
        assert "2 candidates" in captured.err or "3 candidates" in captured.err
