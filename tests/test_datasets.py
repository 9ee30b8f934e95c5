import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tricent
from tricent import (
    dataset_info,
    dataset_names,
    dataset_path,
    datasets,
    load_dataset,
    verify_dataset,
)


def test_registry_names():
    assert dataset_names() == [
        "celegans-metabolic",
        "dolphins",
        "karate",
        "paper-g14",
    ]


def test_all_files_exist_and_hashes_verify():
    for name in dataset_names():
        assert dataset_path(name).exists(), name
        assert verify_dataset(name), name


def test_sha256_hex_matches_hashlib():
    """On every bundled file, the empty string and a seeded 1 MiB blob."""
    files = [dataset_path(name).read_bytes() for name in dataset_names()]
    for data in (*files, b"", random.Random(2025).randbytes(1 << 20)):
        assert datasets._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_falls_back_to_hashlib_without_the_builtin_modules():
    """With CPython's own SHA-256 modules blocked, the digest comes from
    hashlib and is the same."""
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from tricent import dataset_names, dataset_path\n"
        "from tricent.datasets import _sha256_hex\n"
        "assert 'hashlib' in sys.modules\n"
        "print(_sha256_hex(b''))\n"
        "for name in dataset_names():\n"
        "    print(_sha256_hex(dataset_path(name).read_bytes()))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tricent.__file__).parents[1]))
    printed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    files = [dataset_path(name).read_bytes() for name in dataset_names()]
    assert printed == [hashlib.sha256(data).hexdigest() for data in (b"", *files)]


def test_verify_dataset_fails_on_other_bytes(monkeypatch, tmp_path):
    changed = tmp_path / "karate.edges"
    changed.write_bytes(dataset_path("karate").read_bytes() + b"\n")
    monkeypatch.setattr(datasets, "dataset_path", lambda name: changed)
    assert not verify_dataset("karate")


def test_counts_match_registry():
    for name in dataset_names():
        info = dataset_info(name)
        g = load_dataset(name)
        assert g.n == info.vertices, name
        assert g.m == info.edges, name


def test_provenance_headers_present():
    for name in dataset_names():
        first = dataset_path(name).read_text().splitlines()[0]
        assert first.startswith("#"), name


def test_unknown_dataset():
    with pytest.raises(KeyError, match="unknown dataset"):
        dataset_info("enron")
