"""Same seed -> byte-identical input files; another seed -> other files."""

import json

import inputs


def tree(root):
    return {
        path.name: path.read_bytes() for path in sorted(root.iterdir())
    }


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    jobs = dict(dataset="d1", n=40, extend_batches=2, extend_size=5, foreign=3)
    first = inputs.generate(str(tmp_path / "a"), seed=7, **jobs)
    again = inputs.generate(str(tmp_path / "b"), seed=7, **jobs)
    other = inputs.generate(str(tmp_path / "c"), seed=8, **jobs)
    assert first == again
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a")["corpus.xml"] != tree(tmp_path / "c")["corpus.xml"]
    assert sorted(tree(tmp_path / "a")) == [
        "corpus.xml", "extend-0.xml", "extend-1.xml", "foreign-0.xml",
        "foreign-1.xml", "foreign-2.xml", "mapping.xml", "run.json",
    ]
    assert other["objects"] == first["objects"] == 40


def test_dataset3_and_spec_have_no_schema_files(tmp_path):
    inputs.generate(str(tmp_path / "d3"), dataset="d3", n=150, seed=7)
    spec = json.loads((tmp_path / "d3" / "run.json").read_text())
    assert spec["schemas"] == []
    assert spec["documents"] == ["corpus.xml"]
    # as shipped: no strategy, encoding or backend chosen by the benchmark
    assert spec["similarity_strategy"] is None
    assert spec["index_encoding"] is None
    assert spec["backend"] is None and spec["workers"] == 1


def test_corpus_starts_with_a_fully_populated_record(tmp_path):
    from repro.xmlkit import parse_file

    for seed in range(1, 6):
        out = tmp_path / f"s{seed}"
        inputs.generate(str(out), dataset="d3", n=150, seed=seed)
        records = parse_file(str(out / "corpus.xml")).root.children
        every = {child.tag for record in records for child in record.children}
        assert {child.tag for child in records[0].children} == every
