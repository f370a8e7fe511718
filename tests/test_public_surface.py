"""Lazy package exports keep the public surface (PR 24).

Every package ``__init__`` resolves its names on first access through
``repro._lazy``; nothing a caller could see of the eager ``__init__``
files may differ: ``__all__``, ``dir()``, star imports, object identity
with the defining submodule, the error for a name that is not there,
and pickling by reference across a spawned process.
"""

import importlib
import inspect
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.api",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.engine",
    "repro.eval",
    "repro.framework",
    "repro.ingest",
    "repro.serve",
    "repro.strings",
    "repro.xmlkit",
]

#: ``__all__`` of every package: the surface is the export tables, and
#: changing it is a diff here.
PUBLIC_ALL = {
    name: frozenset(names.split())
    for name, names in {
        "repro": """
            CandidateDefinition Corpus DescriptionDefinition DetectionPipeline
            DetectionResult DetectionSession DogmatixConfig DogmatixSimilarity
            ExecutionPolicy Explanation IncrementalUpdate KClosestDescendants
            Match ODTuple ObjectDescription ObjectFilter
            RDistantAncestors RDistantDescendants RunSpec Source
            ThresholdClassifier TypeMapping __version__ c_and c_cm c_me c_or c_sdt
            c_se h_and h_or mapping_from_xml
        """,
        "repro.api": """
            CONDITIONS Corpus DetectionSession Explanation HEURISTICS
            IncrementalUpdate Match Registry RunSpec SEMANTICS SourceLike
            condition_from_spec heuristic_from_spec
        """,
        "repro.baselines": """
            ContainmentSimilarity DelphiClassifier SortedNeighborhood
            TreeEditClassifier TreeEditSimilarity VectorSpaceSimilarity
            default_key hierarchical_prune normalized_tree_distance
            size_lower_bound tree_edit_distance
        """,
        "repro.core": """
            CandidateSuggestion CombinedCondition CombinedHeuristic
            Condition CorpusIndex DescriptionSelector DogmatixConfig
            DogmatixSimilarity FilterDecision Heuristic
            IndexPartial KClosestDescendants ObjectFilter
            RDistantAncestors RDistantDescendants Source TupleMatching
            best_candidate c_and c_cm c_me c_or c_sdt c_se
            candidate_schema_element h_and h_or
            match_tuples refine relative_xpath
            suggest_candidates
        """,
        "repro.datagen": """
            CDCorpus CDRecord CD_XSD DEFAULT_SYNONYMS DirtyConfig
            DirtyDataGenerator FILMDIENST_XSD GOLD_ATTRIBUTE IMDB_XSD MovieCorpus
            MovieRecord PAPER_EXAMPLE_XML PAPER_EXAMPLE_XSD SynonymTable cd_schema
            cd_to_element corrupt filmdienst_element filmdienst_schema
            freedb_corpus freedb_large_corpus generate_cds generate_movies gold_id
            imdb_element imdb_schema introduce_typo
            movie_corpus movie_mapping paper_example_document
            paper_example_mapping paper_example_schema
        """,
        "repro.engine": "ExecutionPolicy",
        "repro.eval": """
            Dataset EXPERIMENTS EXPERIMENTS_BY_NAME Experiment
            FilterSweepResult PRResult SweepResult ThresholdSweepResult
            build_dataset1 build_dataset2 build_dataset3 cd_mapping
            cluster_pairs filter_metrics format_comparable_elements_table
            format_filter_table format_schema_elements_table format_sweep_table
            format_threshold_table gold_pairs objects_with_duplicates pair_metrics
            run_dataset3_threshold_sweep run_experiment run_filter_sweep
            run_heuristic_sweep run_threshold_sweep session_for
        """,
        "repro.framework": """
            CandidateDefinition Classifier DUPLICATES DescriptionDefinition
            DetectionPipeline DetectionResult IncrementalDeduplicator MappingError
            MatchingTuplesClassifier NON_DUPLICATES NoPruning ODTuple
            ObjectDescription ObjectFilterPruning POSSIBLE_DUPLICATES PairSource
            Relation ScoredPair SharedTupleBlocking ThresholdClassifier
            TypeMapping UnionFind clusters_from_xml count_pairs
            duplicate_clusters example1_relations generate_ods mapping_from_xml
            merge_cluster_od od_from_pairs relational_mapping relational_ods
        """,
        "repro.ingest": """
            CHUNK_FACTOR FORMAT_VERSION IndexStore IngestReport ParallelIngestor
            SnapshotInfo
        """,
        "repro.serve": """
            DetectionServer ReadWriteLock ServeClient ServeError SessionEntry
            SessionRegistry serve
        """,
        "repro.strings": """
            BoundedMatcher QGramIndex bag_distance bound_verdict edit_distance
            edit_distance_lower_bound edit_distance_upper_bound jaro
            jaro_winkler length_lower_bound make_value_index ned_cached normalize
            normalized_edit_distance normalized_lower_bound normalized_upper_bound
            overlap qgrams strict_budget tokens within_normalized
        """,
        "repro.xmlkit": """
            ContentModel DataType Document Element Schema SchemaElement UNBOUNDED
            XMLError XPath XPathSyntaxError compile_path
            decode_xml_bytes document_from_record document_record element_record
            infer_schema join parse parse_file parse_schema
            parse_schema_file select serialize sniff_data_type strip_positions
        """,
    }.items()
}


def fresh(code: str) -> str:
    """``code`` in a fresh interpreter (import order is the subject)."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", PACKAGES)
class TestEveryPackage:
    def test_all_is_what_the_eager_init_exported(self, name):
        package = importlib.import_module(name)
        assert sorted(package.__all__) == sorted(set(package.__all__))
        assert set(package.__all__) == PUBLIC_ALL[name]

    def test_names_are_the_defining_submodules_objects(self, name):
        package = importlib.import_module(name)
        for export, (module, attr) in package.__dict__["__exports__"].items():
            defining = importlib.import_module(module)
            assert not hasattr(defining, "__path__"), f"{module} is a package"
            assert getattr(package, export) is getattr(defining, attr), export
            # published: the second read is a plain attribute read
            assert package.__dict__[export] is getattr(defining, attr)

    def test_dir_covers_all(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_unknown_name_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_name'"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})


class TestImportOrder:
    """An export that shares its submodule's name (``xmlkit.serialize``,
    ``strings.jaro``) is the export whichever was imported first: the
    import system binds a loaded submodule onto its parent."""

    @pytest.mark.parametrize(
        "package, name", [("repro.xmlkit", "serialize"), ("repro.strings", "jaro")]
    )
    def test_export_wins_over_the_submodule_of_its_name(self, package, name):
        out = fresh(
            f"import {package}.{name}\n"
            f"from {package} import {name}\n"
            f"import {package} as package\n"
            f"print(callable({name}), callable(package.{name}))\n"
            f"from {package}.{name} import {name} as defined\n"
            f"print({name} is defined)\n"
        )
        assert out.split() == ["True", "True", "True"]
        out = fresh(
            f"from {package} import {name}\n"
            f"import {package}.{name}\n"
            f"import {package} as package, sys\n"
            f"print(package.{name} is {name}, "
            f"sys.modules['{package}.{name}'].{name} is {name})\n"
        )
        assert out.split() == ["True", "True"]

    def test_the_quickstart_imports(self):
        out = fresh(
            "from repro import DetectionSession, Source, TypeMapping\n"
            "from repro.xmlkit import parse\n"
            "xml = '<d><m><t>Alpha</t></m><m><t>Alpha</t></m><m><t>Zed</t></m></d>'\n"
            "mapping = TypeMapping().add('M', '/d/m').add('T', '/d/m/t')\n"
            "session = DetectionSession(Source(parse(xml)), mapping, 'M')\n"
            "print(len(session.detect().clusters), [m.object_id for m in session.match(0)])\n"
        )
        assert out.strip() == "1 [1]"


def test_exported_classes_pickle_by_reference_across_a_spawned_process():
    """Worker payloads name the defining module, never a package: a
    spawned worker unpickling one imports that module and gets the very
    class the parent holds."""
    classes = [
        getattr(repro, name)
        for name in repro.__all__
        if inspect.isclass(getattr(repro, name))
    ]
    assert len(classes) >= 15
    for cls in classes:
        home = sys.modules[cls.__module__]
        assert not hasattr(home, "__path__"), f"{cls} is defined in a package"
        assert getattr(home, cls.__qualname__) is cls
    payload = pickle.dumps(classes)
    assert b"repro.api.session" in payload and b"repro.core.source" in payload
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        echoed = pool.apply(pickle.loads, (payload,))
    assert len(echoed) == len(classes)
    assert all(theirs is ours for theirs, ours in zip(echoed, classes))
