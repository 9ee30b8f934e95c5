"""Bundled edge-list datasets with provenance and integrity hashes."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graph import Graph, load_edge_list

try:  # CPython's own SHA-256 loads no OpenSSL: _sha2 from 3.12, _sha256 before
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without either
        from hashlib import sha256 as _sha256


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    filename: str
    sha256: str
    vertices: int
    edges: int
    provenance: str


_REGISTRY = {
    d.name: d
    for d in (
        DatasetInfo(
            "paper-g14",
            "paper-g14.edges",
            "560c8d4ac198b3a95dfbc4fcd7a4155c3f31b7a969a6ab6c741e9d60baee26c1",
            14,
            15,
            "Synthetic 14-vertex example: triangles {1,2,3} and {5,6,7} bridged "
            "through vertex 4, hub 8 with six pendant leaves 9..14.",
        ),
        DatasetInfo(
            "karate",
            "karate.edges",
            "b12487074ca7abd85cdf0b9e46ad56fb8334307028137ee26e60f02876b3aaab",
            34,
            78,
            "Zachary karate club (1977), canonical 78-edge version, labels 1..34.",
        ),
        DatasetInfo(
            "dolphins",
            "dolphins.edges",
            "8aa57687d7c475d2d13bb00d1bc65ac4da2313fdbe4f1628e9e4c0462a6e0ab0",
            62,
            159,
            "Lusseau bottlenose dolphin social network (2003), labels 1..62.",
        ),
        DatasetInfo(
            "celegans-metabolic",
            "celegans-metabolic.edges",
            "85cdb1e714305c6e093915068f037df6c50803254e142ca6f6fe7087270926bf",
            453,
            2025,
            "C. elegans metabolic network (Duch & Arenas 2005), labels 1..453.",
        ),
    )
}


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 of data as 64 hex digits."""
    return _sha256(data).hexdigest()


def dataset_names() -> list[str]:
    return sorted(_REGISTRY)


def dataset_info(name: str) -> DatasetInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; have {dataset_names()}") from None


def dataset_path(name: str) -> Path:
    return Path(__file__).with_name("data") / dataset_info(name).filename


def verify_dataset(name: str) -> bool:
    """True when the bundled file's SHA-256 matches the registered hash."""
    info = dataset_info(name)
    return _sha256_hex(dataset_path(name).read_bytes()) == info.sha256


def load_dataset(name: str) -> Graph:
    return load_edge_list(dataset_path(name))
