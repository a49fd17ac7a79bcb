"""Knowledge-base persistence: real files on the host filesystem.

A saved knowledge base is a directory:

* ``symbols.bin`` — the shared symbol table;
* ``manifest.txt`` — one line per predicate: ``name/arity<TAB>module``
  plus module residency pins;
* ``<name>_<arity>.clauses`` — each predicate's compiled clause file
  image (the same bytes that stream through CLARE);
* ``<name>_<arity>.index`` — its secondary index image (the codeword
  scheme parameters are stored in the manifest);
* ``<name>_<arity>.cols`` — optionally, the index's packed bit-sliced
  columns (:func:`write_columns`; the process workers' segment
  directories carry them, snapshots do not).

This realises the premise of the paper's title: the knowledge base lives
in secondary storage and is *not* re-consulted from source.  Loading
adopts both images as they are (:meth:`~repro.pif.ClauseFile.from_image`,
:meth:`~repro.scw.SecondaryIndexFile.from_image`): every record header
is validated, nothing is decoded, recompiled or re-hashed.  Only an
index image that is missing or does not describe the clause file is
rebuilt from the decoded heads (counted in ``storage.index_rebuilds``).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Callable

from ..obs import Instrumentation
from ..pif import ClauseFile, PIFDecodeError, SymbolTable
from ..scw import CodewordScheme, SecondaryIndexFile
from .kb import KnowledgeBase, PredicateStore

__all__ = ["save_kb", "load_kb", "kb_fingerprint", "PersistenceError",
           "save_write_ids", "load_write_ids"]

_MANIFEST = "manifest.txt"
_SYMBOLS = "symbols.bin"
_WRITE_IDS = "write_ids.json"


class PersistenceError(RuntimeError):
    """Raised on malformed saved knowledge bases."""


def _predicate_stem(indicator: tuple[str, int]) -> str:
    name, arity = indicator
    safe = "".join(c if c.isalnum() else f"_{ord(c):02x}_" for c in name)
    return f"{safe}_{arity}"


def _assign_stems(kb: KnowledgeBase) -> dict[tuple[str, int], str]:
    """A unique file stem per predicate, collision-checked up front.

    The escaped stem is not injective in general (distinct names can
    escape alike, and case-only differences — ``foo/1`` vs ``Foo/1`` —
    collide on case-insensitive filesystems), so stems are deduplicated
    case-insensitively with a deterministic ``__N`` suffix.  The
    manifest records the assigned stem, and :func:`load_kb` trusts the
    manifest — never re-derives the stem — so a disambiguated save
    round-trips exactly.
    """
    stems: dict[tuple[str, int], str] = {}
    taken: set[str] = set()
    for store in kb:
        base = _predicate_stem(store.indicator)
        stem, suffix = base, 1
        while stem.casefold() in taken:
            suffix += 1
            stem = f"{base}__{suffix}"
        taken.add(stem.casefold())
        stems[store.indicator] = stem
    return stems


def _write_file(path: pathlib.Path, data: bytes, *, durable: bool) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())


def _fsync_dir(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_kb(
    kb: KnowledgeBase,
    directory: str | pathlib.Path,
    *,
    durable: bool = True,
) -> list[str]:
    """Write the knowledge base to ``directory``; returns files written.

    The manifest is written last, via a temporary file renamed into
    place, so a reader never observes a manifest naming data files that
    are absent or incomplete.  With ``durable`` (the default) every data
    file and the directory itself are fsynced *before* the manifest
    rename, and the rename is fsynced after — a crash at any point
    leaves either no manifest or a manifest whose data files are fully
    on disk.  Callers that provide their own tree-wide sync (the WAL
    store's compaction) pass ``durable=False`` to skip the per-file
    fsyncs.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    stems = _assign_stems(kb)

    _write_file(path / _SYMBOLS, kb.symbols.to_bytes(), durable=durable)
    written.append(_SYMBOLS)

    lines = [
        f"scheme\t{kb.scheme.width}\t{kb.scheme.bits_per_key}\t"
        f"{kb.scheme.max_args}\t{kb.scheme.max_depth}"
    ]
    for module in kb.modules():
        pin = module.pinned_residency or "-"
        lines.append(
            f"module\t{module.name}\t{module.large_threshold_bytes}\t{pin}"
        )
    for store in kb:
        name, arity = store.indicator
        stem = stems[store.indicator]
        lines.append(f"predicate\t{name}\t{arity}\t{store.module_name}\t{stem}")
        clause_path = path / f"{stem}.clauses"
        _write_file(clause_path, store.clause_file.to_bytes(), durable=durable)
        written.append(clause_path.name)
        index_path = path / f"{stem}.index"
        _write_file(index_path, store.index.to_bytes(), durable=durable)
        written.append(index_path.name)

    manifest_body = ("\n".join(lines) + "\n").encode("utf-8")
    if durable:
        _fsync_dir(path)
    tmp_path = path / (_MANIFEST + ".tmp")
    _write_file(tmp_path, manifest_body, durable=durable)
    os.replace(tmp_path, path / _MANIFEST)
    if durable:
        _fsync_dir(path)
    written.append(_MANIFEST)
    return written


def save_write_ids(directory: str | pathlib.Path, write_ids: list[str]) -> None:
    """Write the sidecar a snapshot carries beside its clause files: the
    applied write-id memo at the cut, which whoever restores the content
    needs to dedupe a redelivery of a write already *inside* it."""
    (pathlib.Path(directory) / _WRITE_IDS).write_text(
        json.dumps(write_ids), encoding="utf-8"
    )


def load_write_ids(directory: str | pathlib.Path) -> list[str]:
    """The memo :func:`save_write_ids` wrote (empty when there is none)."""
    path = pathlib.Path(directory) / _WRITE_IDS
    if not path.exists():
        return []
    try:
        write_ids = json.loads(path.read_text(encoding="utf-8"))
        if type(write_ids) is not list or not all(
            type(write_id) is str for write_id in write_ids
        ):
            raise ValueError(type(write_ids).__name__)
    except ValueError as exc:
        raise PersistenceError(f"{path}: not a write-id list") from exc
    return write_ids


def load_kb(
    directory: str | pathlib.Path, obs: Instrumentation | None = None
) -> KnowledgeBase:
    """Reconstruct a knowledge base saved by :func:`save_kb`."""
    return restore_kb(
        KnowledgeBase(obs=obs), directory, pathlib.Path.read_bytes, PersistenceError
    )


def restore_kb(
    kb: KnowledgeBase,
    directory: str | pathlib.Path,
    read: Callable[[pathlib.Path], bytes | memoryview],
    error: type[PersistenceError],
) -> KnowledgeBase:
    """Adopt a saved directory's images into the empty ``kb``.

    ``read`` returns a file's content as a read-only buffer — the bytes
    themselves for :func:`load_kb`, a view of an mmap for
    :func:`repro.parallel.attach_kb` — and the clause files and indexes
    wrap those buffers as they are.  Malformed input raises ``error``.
    """
    path = pathlib.Path(directory)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise error(f"no {_MANIFEST} in {path}")

    scheme: CodewordScheme | None = None
    modules: list[tuple[str, int, str]] = []
    predicates: list[tuple[str, int, str, str]] = []
    for line_number, line in enumerate(
        manifest_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        fields = line.split("\t")
        kind = fields[0]
        where = f"{_MANIFEST}:{line_number}"
        try:
            if kind == "scheme":
                if len(fields) != 5:
                    raise ValueError(f"{len(fields) - 1} fields, expected 4")
                scheme = CodewordScheme(*map(int, fields[1:]))
            elif kind == "module":
                modules.append((fields[1], int(fields[2]), fields[3]))
            elif kind == "predicate":
                predicates.append((fields[1], int(fields[2]), fields[3], fields[4]))
            else:
                raise error(f"{where}: unknown entry {kind!r}")
        except (IndexError, ValueError) as exc:
            raise error(f"{where}: bad {kind} line: {exc}") from exc

    if scheme is None:
        # No default is safe: a KB indexed under one k and queried under
        # another drops true unifiers in FS1.
        raise error(f"{_MANIFEST}: no scheme line")

    seen_stems: dict[str, tuple[str, int]] = {}
    for name, arity, _, stem in predicates:
        prior = seen_stems.setdefault(stem, (name, arity))
        if prior != (name, arity):
            # Two predicates sharing one clause file means the save
            # silently overwrote one with the other (pre-collision-check
            # writer); loading either image as both would corrupt the KB.
            raise error(
                f"manifest maps both {prior[0]}/{prior[1]} and "
                f"{name}/{arity} to clause file stem {stem!r}"
            )

    kb.scheme = scheme
    kb.symbols = SymbolTable.from_bytes((path / _SYMBOLS).read_bytes())
    for name, threshold, pin in modules:
        module = kb.module(name)
        module.large_threshold_bytes = threshold
        if pin != "-":
            module.pin(pin)
    for name, arity, module_name, stem in predicates:
        indicator = (name, arity)
        clause_path = path / f"{stem}.clauses"
        if not clause_path.exists():
            raise error(f"missing clause file {clause_path.name}")
        try:
            clause_file = ClauseFile.from_image(
                indicator, kb.symbols, read(clause_path)
            )
        except PIFDecodeError as exc:
            raise error(f"{clause_path.name}: {exc}") from exc
        index = _adopt_index(path, stem, clause_file, scheme, read, error)
        if index is None:
            kb.disk.obs.counter("storage.index_rebuilds").inc()
            index = SecondaryIndexFile.build(clause_file, scheme)
        kb._predicates[indicator] = PredicateStore(
            indicator=indicator,
            clause_file=clause_file,
            module_name=module_name,
            scheme=scheme,
            index=index,
        )
        kb.module(module_name).add_procedure(indicator)
    kb.publish_footprint()
    return kb


def _adopt_index(
    path: pathlib.Path,
    stem: str,
    clause_file: ClauseFile,
    scheme: CodewordScheme,
    read: Callable[[pathlib.Path], bytes | memoryview],
    error: type[PersistenceError],
) -> SecondaryIndexFile | None:
    """The saved index image, if it describes ``clause_file``.

    It does when it has one row per record and row ``i`` carries record
    ``i``'s address; anything else (absent, short, written for another
    clause file) is not adopted and the caller rebuilds.  A ``.cols``
    file beside it is the packed columns of the same rows.
    """
    index_path = path / f"{stem}.index"
    if not index_path.exists():
        return None
    rows = read(index_path)
    if len(rows) != len(clause_file) * scheme.entry_bytes():
        return None
    packed = None
    cols_path = path / f"{stem}.cols"
    if cols_path.exists():
        packed = _read_columns(read(cols_path), len(clause_file), scheme)
        if packed is None:
            raise error(f"{cols_path.name}: not the columns of {index_path.name}")
    index = SecondaryIndexFile.from_image(
        scheme, clause_file.indicator, rows, packed
    )
    if index.record_addresses() != clause_file.record_addresses():
        return None
    return index


def write_columns(kb: KnowledgeBase, directory: str | pathlib.Path) -> list[str]:
    """Write each index's packed bit-sliced columns beside a :func:`save_kb`.

    ``<stem>.cols`` is the scheme's ``width`` columns then its
    ``max_args`` mask planes, each a little-endian integer of
    ``ceil(entries/8)`` bytes
    (:meth:`~repro.scw.bitsliced.BitSlicedIndex.packed_columns`): a
    reader rebuilds the columnar index with one ``int.from_bytes`` per
    column instead of one pass over the rows.
    """
    path = pathlib.Path(directory)
    written = []
    for indicator, stem in _assign_stems(kb).items():
        _, columns, planes = kb.store(indicator).index.bitsliced.packed_columns()
        (path / f"{stem}.cols").write_bytes(columns + planes)
        written.append(f"{stem}.cols")
    return written


def _read_columns(
    image: bytes | memoryview, entries: int, scheme: CodewordScheme
) -> tuple[int, bytes, bytes] | None:
    """The ``packed`` triple of a ``.cols`` image, if it has the one
    size the entry count and the scheme allow."""
    column_bytes = max(1, (entries + 7) // 8)
    columns_end = scheme.width * column_bytes
    if len(image) != columns_end + scheme.max_args * column_bytes:
        return None
    return column_bytes, image[:columns_end], image[columns_end:]


def kb_fingerprint(kb: KnowledgeBase) -> dict[str, list[str]]:
    """A content fingerprint: predicate → its clauses as strings, in order.

    Two knowledge bases with equal fingerprints answer every retrieval
    identically (same clause population, same within-predicate order).
    Migration and replica-resync tests compare fingerprints to prove a
    snapshot + catch-up delta reconstructed the source exactly; the
    string form makes mismatches directly readable in assertion diffs.
    """
    fingerprint: dict[str, list[str]] = {}
    for store in kb:
        name, arity = store.indicator
        fingerprint[f"{name}/{arity}"] = [
            str(clause) for clause in store.clauses()
        ]
    return fingerprint
