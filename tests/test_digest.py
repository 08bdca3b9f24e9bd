"""``repro.digest.sha256`` is SHA-256 without OpenSSL, and the only one.

Every pinned digest (chain frames, ``chain_sha256``, ``state_sha256``,
spec, result and report digests, hotspot names) goes through it, so it
is checked byte for byte against ``hashlib.sha256`` as its reference.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.digest import Sha256, sha256

SRC = Path(repro.__file__).resolve().parent


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_one_shot_digest_matches_hashlib(data):
    ours, reference = sha256(data), hashlib.sha256(data)
    assert ours.digest() == reference.digest()
    assert ours.hexdigest() == reference.hexdigest()


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=4096),
    st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
    st.integers(min_value=0, max_value=12),
)
def test_chunked_updates_and_a_mid_stream_copy_match_hashlib(
    data, cuts, fork_at
):
    bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    fork_at = min(fork_at, len(chunks))
    ours, reference = sha256(), hashlib.sha256()
    for chunk in chunks[:fork_at]:
        ours.update(chunk)
        reference.update(chunk)
    fork, reference_fork = ours.copy(), reference.copy()
    for chunk in chunks[fork_at:]:
        ours.update(chunk)
        reference.update(chunk)
    fork.update(b"tail")
    reference_fork.update(b"tail")
    assert ours.digest() == reference.digest() == hashlib.sha256(data).digest()
    assert ours.hexdigest() == reference.hexdigest()
    assert fork.hexdigest() == reference_fork.hexdigest()


def test_the_hash_is_not_openssls():
    digest = sha256()
    assert type(digest) is Sha256
    assert Sha256.__module__ != "_hashlib"
    assert (digest.name, digest.digest_size, digest.block_size) == (
        "sha256", 32, 64,
    )


def _imports_hashlib(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if {name.split(".")[0] for name in names} & {"hashlib", "_hashlib"}:
            return True
    return False


def test_no_module_but_repro_digest_imports_hashlib():
    """``repro.digest`` falls back to ``hashlib`` only on an interpreter
    without CPython's own SHA-256; every other module hashes through it."""
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _imports_hashlib(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["digest.py"]
