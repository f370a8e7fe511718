"""RunSpec tests: validation, JSON round trip, file loading."""

import dataclasses
import json

import pytest

from repro.api import RunSpec
from repro.core import DogmatixConfig, KClosestDescendants
from repro.datagen import (
    PAPER_EXAMPLE_XML,
    PAPER_EXAMPLE_XSD,
    paper_example_mapping,
)
from repro.engine import ExecutionPolicy


def full_spec() -> RunSpec:
    """A spec exercising every field away from its default."""
    return RunSpec(
        documents=["a.xml", "b.xml"],
        mapping="mapping.xml",
        real_world_type="DISC",
        schemas=["a.xsd"],
        heuristic="rdistant:1+ancestors:2",
        conditions="sdt,me",
        theta_tuple=0.25,
        theta_cand=0.65,
        use_object_filter=False,
        use_blocking=False,
        include_empty=True,
        possible_threshold=0.40,
        similar_semantics="all-pairs",
        workers=3,
        backend="process",
    )


class TestValidation:
    def test_needs_documents(self):
        with pytest.raises(ValueError, match="at least one document"):
            RunSpec(documents=[], mapping="m.xml", real_world_type="T")

    def test_more_schemas_than_documents(self):
        with pytest.raises(ValueError, match="pair with documents"):
            RunSpec(
                documents=["a.xml"],
                schemas=["a.xsd", "b.xsd"],
                mapping="m.xml",
                real_world_type="T",
            )

    def test_unknown_heuristic(self):
        with pytest.raises(LookupError, match="kclosest"):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                heuristic="zzz:3",
            )

    def test_malformed_heuristic(self):
        with pytest.raises(ValueError, match="name:number"):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                heuristic="kclosest",
            )

    def test_unknown_condition(self):
        with pytest.raises(LookupError, match="condition"):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                conditions="sdt,zzz",
            )

    def test_unknown_semantics_and_backend(self):
        with pytest.raises(LookupError):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                similar_semantics="fuzzy",
            )
        with pytest.raises(LookupError):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                backend="gpu",
            )


class TestRoundTrip:
    def test_spec_round_trips_identically(self):
        spec = full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_config_round_trips_identically(self):
        """JSON -> spec -> config equals the original config — including
        heuristic and ANDed conditions; the spec keeps its worker count."""
        spec = full_spec()
        original = spec.to_config()
        restored_spec = RunSpec.from_json(spec.to_json())
        assert restored_spec.to_config() == original
        assert restored_spec.execution_policy() == ExecutionPolicy(workers=3)

    def test_default_config_round_trips(self):
        spec = RunSpec(documents=["a.xml"], mapping="m.xml", real_world_type="T")
        config = RunSpec.from_json(spec.to_json()).to_config()
        assert config == spec.to_config()
        assert config.heuristic == KClosestDescendants(6)
        assert config.condition is None

    def test_backend_none_derives_from_workers(self):
        spec = RunSpec(
            documents=["a.xml"], mapping="m.xml", real_world_type="T",
            workers=4,
        )
        assert spec.execution_policy() == ExecutionPolicy.for_workers(4)

    def test_unknown_json_keys_rejected(self):
        payload = json.loads(full_spec().to_json())
        payload["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            RunSpec.from_dict(payload)

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="object"):
            RunSpec.from_json("[1, 2]")


# ----------------------------------------------------------------------
# ExecutionPolicy: what a spec's workers / backend fields build
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_defaults_are_serial(self):
        policy = ExecutionPolicy()
        assert policy.backend == "serial"
        assert policy.workers == 1
        assert not policy.parallel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 4, "backend": "process"},
            {"workers": 4, "shard_by": "block"},
            {"workers": 4, "filter_in_workers": False},
            {"workers": 4, "batch_size": 32},
            {"workers": 4, "ingest_workers": 2},
        ],
    )
    def test_removed_keywords_are_rejected(self, kwargs):
        """The worker count alone picks the backend; the shard
        backend's settings, the batch size and the ingest workers went
        before it."""
        with pytest.raises(TypeError):
            ExecutionPolicy(**kwargs)

    def test_backend_is_derived_not_set(self):
        assert ExecutionPolicy().backend == "serial"
        assert ExecutionPolicy(workers=4).backend == "process"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().backend = "process"  # type: ignore[misc]

    def test_for_workers(self):
        assert ExecutionPolicy.for_workers(1).backend == "serial"
        four = ExecutionPolicy.for_workers(4)
        assert four.backend == "process"
        assert four == ExecutionPolicy(workers=4)
        assert four.parallel
        auto = ExecutionPolicy.for_workers(0)
        assert auto.workers >= 1

    def test_single_process_worker_is_not_parallel(self):
        assert not ExecutionPolicy(workers=1).parallel
        assert ExecutionPolicy(workers=1).backend == "serial"

    def test_sharded_is_for_workers(self):
        """The removed shard backend's constructor names the process
        policy of the same worker count."""
        policy = ExecutionPolicy.sharded(3, shard_by="object")
        assert policy == ExecutionPolicy.for_workers(3)
        assert policy.backend == "process" and policy.parallel
        assert ExecutionPolicy.sharded(2, filter_in_workers=True) == (
            ExecutionPolicy.for_workers(2)
        )
        assert not ExecutionPolicy.sharded(1).parallel
        assert ExecutionPolicy.sharded(0).workers >= 1

    @pytest.mark.parametrize(
        "kwargs", [{"shard_by": "rows"}, {"filter_in_workers": "yes"}]
    )
    def test_sharded_validates_what_it_drops(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy.sharded(2, **kwargs)


def spec_dict(**fields) -> dict:
    return {
        **RunSpec(
            documents=["a.xml"], mapping="m.xml", real_world_type="T"
        ).to_dict(),
        **fields,
    }


class TestExecutionFieldsValidateOnLoad:
    """Every execution field is checked when the spec is built, not
    when its session is: a bad one is a ``ValueError`` from
    ``from_dict``, which the CLI and the daemon report as a bad spec."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"batch_size": 0},
            {"batch_size": -3},
            {"backend": "serial", "workers": 2},
        ],
        ids=["batch_size-0", "batch_size-negative", "serial-two-workers"],
    )
    def test_bad_execution_field_raises_on_load(self, fields):
        with pytest.raises(ValueError):
            RunSpec.from_dict(spec_dict(**fields))

    def test_process_backend_with_one_worker_runs_serial(self):
        spec = RunSpec.from_dict(spec_dict(backend="process", workers=1))
        assert spec.execution_policy() == ExecutionPolicy()


class TestLegacyShardSettings:
    """Specs and store manifests written while the shard backend
    existed carry ``shard_by``/``filter_in_workers`` (``to_dict`` is
    ``asdict``) and may name ``backend: "shard"``; they still load, as
    the process backend, which answered bit-identically."""

    def test_runspec_has_no_shard_fields(self):
        names = {field.name for field in dataclasses.fields(RunSpec)}
        assert not names & {"shard_by", "filter_in_workers"}
        assert "shard_by" not in spec_dict()

    @pytest.mark.parametrize("shard_by", ["block", "object"])
    @pytest.mark.parametrize("filter_in_workers", [False, True])
    def test_parent_shaped_spec_loads_as_process(
        self, shard_by, filter_in_workers
    ):
        spec = RunSpec.from_dict(
            spec_dict(
                workers=4, backend="shard", shard_by=shard_by,
                filter_in_workers=filter_in_workers,
            )
        )
        assert spec.backend == "process"
        assert spec.execution_policy() == ExecutionPolicy.for_workers(4)
        assert spec == RunSpec.from_dict(spec_dict(workers=4, backend="process"))

    def test_legacy_keys_with_any_backend_are_dropped(self):
        spec = RunSpec.from_dict(
            spec_dict(shard_by="block", filter_in_workers=False)
        )
        assert spec == RunSpec.from_dict(spec_dict())

    @pytest.mark.parametrize(
        "fields",
        [{"shard_by": "rows"}, {"filter_in_workers": "yes"}],
        ids=["shard_by", "filter_in_workers"],
    )
    def test_a_value_the_backend_never_accepted_raises(self, fields):
        with pytest.raises(ValueError, match="removed"):
            RunSpec.from_dict(spec_dict(**fields))

    def test_constructor_does_not_take_the_shard_backend(self):
        with pytest.raises(LookupError, match="shard backend was removed"):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                backend="shard",
            )


class TestLegacyExecutionSettings:
    """Specs and store manifests written while ``batch_size`` and
    ``ingest_workers`` were fields carry both keys; neither changed a
    result nor entered the store's content key, so they load without
    them — unless they hold a value the old field never accepted."""

    def test_runspec_has_one_execution_setting(self):
        names = {field.name for field in dataclasses.fields(RunSpec)}
        assert not names & {"batch_size", "ingest_workers"}
        assert len(names) == 17
        assert [f.name for f in dataclasses.fields(ExecutionPolicy)] == [
            "workers"
        ]

    @pytest.mark.parametrize("ingest_workers", [0, 1, 4])
    @pytest.mark.parametrize("batch_size", [1, 256, 512])
    def test_parent_shaped_spec_loads_without_them(
        self, batch_size, ingest_workers
    ):
        spec = RunSpec.from_dict(
            spec_dict(
                workers=2, batch_size=batch_size, ingest_workers=ingest_workers
            )
        )
        assert spec == RunSpec.from_dict(spec_dict(workers=2))
        assert spec.execution_policy() == ExecutionPolicy(workers=2)

    @pytest.mark.parametrize(
        "fields",
        [
            {"ingest_workers": -1},
            {"ingest_workers": 1.5},
            {"batch_size": "256"},
            {"batch_size": None},
        ],
        ids=["ingest_workers-negative", "ingest_workers-float",
             "batch_size-string", "batch_size-null"],
    )
    def test_a_value_the_old_field_never_accepted_raises(self, fields):
        with pytest.raises(ValueError, match="removed"):
            RunSpec.from_dict(spec_dict(**fields))

    def test_constructor_does_not_take_them(self):
        with pytest.raises(TypeError):
            RunSpec(
                documents=["a.xml"], mapping="m.xml", real_world_type="T",
                batch_size=256,
            )


class TestThresholdsValidateOnLoad:
    """The thresholds are checked when the spec is built, by the same
    function as :class:`DogmatixConfig` — the CLI reports a bad one as
    ``cannot load spec``, the daemon as a 400 ``bad RunSpec``."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"theta_cand": 2},
            {"theta_cand": -0.5},
            {"theta_cand": float("nan")},
            {"theta_tuple": -1},
            {"theta_tuple": float("inf")},
            {"theta_cand": "0.5"},
            {"possible_threshold": 0.9},
            {"possible_threshold": 0.55},
            {"possible_threshold": -0.1},
        ],
        ids=["cand-2", "cand-negative", "cand-nan", "tuple-negative",
             "tuple-inf", "cand-string", "possible-above", "possible-equal",
             "possible-negative"],
    )
    def test_bad_threshold_raises(self, fields):
        with pytest.raises(ValueError, match="theta_|possible_threshold"):
            RunSpec.from_dict(spec_dict(**fields))
        config_fields = {
            "theta_tuple": 0.15, "theta_cand": 0.55, "possible_threshold": None,
        }
        config_fields.update(fields)
        with pytest.raises(ValueError, match="theta_|possible_threshold"):
            DogmatixConfig(**config_fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"theta_cand": 0, "theta_tuple": 1},
            {"theta_cand": 1.0, "possible_threshold": 0.0},
            {"possible_threshold": 0.54},
        ],
        ids=["bounds", "possible-zero", "possible-below"],
    )
    def test_thresholds_at_the_bounds_load(self, fields):
        assert RunSpec.from_dict(spec_dict(**fields)).to_config()


class TestFiles:
    @pytest.fixture()
    def example_dir(self, tmp_path):
        (tmp_path / "movies.xml").write_text(PAPER_EXAMPLE_XML, encoding="utf-8")
        (tmp_path / "movies.xsd").write_text(PAPER_EXAMPLE_XSD, encoding="utf-8")
        (tmp_path / "mapping.xml").write_text(
            paper_example_mapping().to_xml(), encoding="utf-8"
        )
        spec = RunSpec(
            documents=["movies.xml"],
            mapping="mapping.xml",
            real_world_type="MOVIE",
            schemas=["movies.xsd"],
            heuristic="rdistant:2",
            theta_tuple=0.55,
            theta_cand=0.55,
            use_object_filter=False,
        )
        spec.save(str(tmp_path / "run.json"))
        return tmp_path

    def test_load_resolves_relative_paths(self, example_dir):
        spec = RunSpec.load(str(example_dir / "run.json"))
        assert spec.documents == [str(example_dir / "movies.xml")]
        assert spec.mapping == str(example_dir / "mapping.xml")
        assert spec.schemas == [str(example_dir / "movies.xsd")]

    def test_build_session_end_to_end(self, example_dir):
        session = RunSpec.load(str(example_dir / "run.json")).build_session()
        result = session.detect()
        assert result.duplicate_id_pairs() == {(0, 1)}
        assert [m.object_id for m in session.match(0)] == [1]

    def test_sources_use_given_schema(self, example_dir):
        spec = RunSpec.load(str(example_dir / "run.json"))
        (source,) = spec.load_sources()
        assert source.schema is not None

    def test_schemas_pair_with_documents_positionally(self, example_dir):
        """Documents beyond the schema list get ``None`` (inferred later)."""
        spec = RunSpec.load(str(example_dir / "run.json"))
        spec.documents = spec.documents * 2
        first, second = spec.load_sources()
        assert first.schema is not None
        assert second.schema is None
        assert first.document.root.tag == second.document.root.tag == "moviedoc"
