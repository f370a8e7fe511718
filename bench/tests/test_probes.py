from probes import Probes, mode_probe


def test_broken_probe_yields_null_and_an_error_without_failing():
    probes = Probes({"run": "t"})

    def broken():
        from repro.strings import no_such_function  # noqa: F401

    probes.run("broken", ["strings.gone_s", "strings.gone_calls"], broken)
    probes.run("fine", ["ok.value"], lambda: probes.metrics.update({"ok.value": 1.5}))
    assert probes.metrics == {
        "strings.gone_s": None, "strings.gone_calls": None, "ok.value": 1.5,
    }
    assert [error["probe"] for error in probes.errors] == ["broken"]
    assert "ImportError" in probes.errors[0]["error"]
    # the failed probe still has its span, closed
    spans = {span["name"]: span for span in probes.tracer.spans}
    assert spans["probe.broken"]["end"] is not None


def test_probe_child_reports_errors_for_missing_inputs(tmp_path):
    # no spec file at all: every probe in the group fails, the child does not
    record = mode_probe(
        {"spec": str(tmp_path / "missing.json"), "groups": ["ingest_layers"]}
    )
    assert record["metrics"]["xmlkit.parse_s"] is None
    assert record["metrics"]["core.index_bytes"] is None
    assert len(record["probe_errors"]) == 3
