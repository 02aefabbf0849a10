"""Run manifests: the versioned, machine-readable record of one run.

A :class:`RunManifest` answers, after the fact, "what exactly did this
run do?": which algorithm and parameters, under which naming/adversary,
on which backend, on what host, at which git revision, with what outcome
and what telemetry.  Manifests are plain JSON documents with a declared
schema version (:data:`MANIFEST_SCHEMA`), so they survive the code that
wrote them; every load path re-validates, and a document that fails the
check raises :class:`~repro.errors.ManifestValidationError` listing
*all* problems found rather than the first.

Two disk formats, both line-oriented diff-friendly:

* ``<name>.json`` — one manifest per file (what
  ``benchmarks/run_experiments.py --telemetry <dir>`` writes, one file
  per bench cell, next to ``BENCH_explore.json``);
* ``<name>.ndjson`` — one manifest per line, for sweeps with many cells.

:func:`load_manifests` accepts either format or a directory of them.
The schema itself is documented field-by-field in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ManifestValidationError

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "TruncatedManifestWarning",
    "validate_manifest",
    "host_fingerprint",
    "current_git_revision",
    "load_manifests",
    "write_manifests_ndjson",
]


class TruncatedManifestWarning(UserWarning):
    """An NDJSON manifest stream ended in a torn, unparseable line.

    Exactly the state a writer killed mid-append leaves behind (the
    sweep farm's per-worker manifest streams, most prominently).  Only
    emitted when the caller opts in via
    ``load_manifests(..., tolerate_truncated_tail=True)`` — by default
    a torn line is still a hard parse error.
    """

#: Current manifest schema identifier.  Bump the version suffix on any
#: breaking field change; readers reject versions they do not know.
MANIFEST_SCHEMA = "repro.run_manifest/v1"

#: (field name, accepted types, required) — the schema check's core.
#: ``dict``-typed fields are free-form by design (parameters, outcome
#: and telemetry vary by run kind); the schema pins the envelope, and
#: the ``telemetry`` block is additionally checked structurally.
_FIELDS: Tuple[Tuple[str, Tuple[type, ...], bool], ...] = (
    ("schema", (str,), True),
    ("kind", (str,), True),
    ("algorithm", (str,), True),
    ("parameters", (dict,), True),
    ("naming", (str,), True),
    ("adversary", (str, type(None)), False),
    ("backend", (str,), True),
    ("workers", (int,), True),
    ("host", (dict,), True),
    ("git_rev", (str, type(None)), False),
    ("outcome", (dict,), True),
    ("telemetry", (dict,), True),
    ("created_at", (str,), True),
)

_TELEMETRY_KEYS: Tuple[Tuple[str, type], ...] = (
    ("counters", dict),
    ("gauges", dict),
    ("phases", dict),
    ("events", list),
    ("events_dropped", int),
)


def host_fingerprint() -> Dict[str, Any]:
    """Where a run executed: platform, interpreter, core count."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def current_git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The checkout's HEAD commit, or ``None`` outside a git checkout.

    Looked up once per process and directory (``cwd``, default the
    working directory): the revision describes the code this process
    imported, which cannot change while it runs, so a farm writing one
    manifest per cell starts one ``git`` subprocess, not one per cell.
    ``_git_revision_at.cache_clear()`` forgets the lookups.

    Never raises: a manifest must be writable from an installed wheel,
    a tarball, or a host without git just as well as from the repo.
    """
    try:
        directory = os.path.abspath(cwd if cwd is not None else os.getcwd())
    except OSError:  # the working directory was removed
        return None
    return _git_revision_at(directory)


@functools.lru_cache(maxsize=32)
def _git_revision_at(directory: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def validate_manifest(document: Any) -> List[str]:
    """Check ``document`` against the manifest schema.

    Returns the list of problems found (empty = valid).  Pure and
    side-effect free so callers can validate untrusted documents without
    committing to constructing a :class:`RunManifest`.
    """
    if not isinstance(document, dict):
        return [f"manifest must be a JSON object, got {type(document).__name__}"]
    problems: List[str] = []
    declared = document.get("schema")
    if declared != MANIFEST_SCHEMA and isinstance(declared, str):
        problems.append(
            f"unsupported schema {declared!r} (this reader knows "
            f"{MANIFEST_SCHEMA!r})"
        )
    for name, types, required in _FIELDS:
        if name not in document:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        value = document[name]
        # bool is an int subclass; "workers": true must not validate.
        if isinstance(value, bool) and bool not in types:
            problems.append(f"field {name!r} must not be a bool")
            continue
        if not isinstance(value, types):
            expected = "/".join(
                "null" if t is type(None) else t.__name__ for t in types
            )
            problems.append(
                f"field {name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    telemetry = document.get("telemetry")
    if isinstance(telemetry, dict):
        for key, expected_type in _TELEMETRY_KEYS:
            if key not in telemetry:
                problems.append(f"telemetry block missing {key!r}")
            elif not isinstance(telemetry[key], expected_type):
                problems.append(
                    f"telemetry.{key} must be {expected_type.__name__}, "
                    f"got {type(telemetry[key]).__name__}"
                )
    unknown = set(document) - {name for name, _, _ in _FIELDS}
    if unknown:
        problems.append(
            "unknown fields: " + ", ".join(sorted(repr(u) for u in unknown))
        )
    return problems


@dataclass
class RunManifest:
    """One run's auditable record; see the module docstring.

    Construct directly when every field is already known, or via
    :meth:`create` to have the ambient fields (host, git revision,
    timestamp) filled in.  ``parameters`` and ``outcome`` are free-form
    JSON objects — by convention ``outcome`` carries a ``verdict`` key
    (e.g. ``"exhaustive-ok"``, ``"bounded-ok"``, ``"violation"``,
    ``"ok"``) that the report CLI leads its table with.
    """

    kind: str
    algorithm: str
    parameters: Dict[str, Any]
    naming: str
    backend: str
    workers: int
    host: Dict[str, Any]
    outcome: Dict[str, Any]
    telemetry: Dict[str, Any]
    created_at: str
    adversary: Optional[str] = None
    git_rev: Optional[str] = None
    schema: str = MANIFEST_SCHEMA

    @classmethod
    def create(
        cls,
        kind: str,
        algorithm: str,
        parameters: Optional[Dict[str, Any]] = None,
        naming: str = "identity",
        adversary: Optional[str] = None,
        backend: str = "serial",
        workers: int = 1,
        outcome: Optional[Dict[str, Any]] = None,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Build a manifest, filling host/git/timestamp automatically."""
        from repro.obs.telemetry import NULL_TELEMETRY

        return cls(
            kind=kind,
            algorithm=algorithm,
            parameters=dict(parameters or {}),
            naming=naming,
            adversary=adversary,
            backend=backend,
            workers=workers,
            host=host_fingerprint(),
            git_rev=current_git_revision(),
            outcome=dict(outcome or {}),
            telemetry=dict(telemetry)
            if telemetry is not None
            else NULL_TELEMETRY.snapshot(),
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document form (validates before returning)."""
        document = {
            "schema": self.schema,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "parameters": self.parameters,
            "naming": self.naming,
            "adversary": self.adversary,
            "backend": self.backend,
            "workers": self.workers,
            "host": self.host,
            "git_rev": self.git_rev,
            "outcome": self.outcome,
            "telemetry": self.telemetry,
            "created_at": self.created_at,
        }
        _raise_on_problems(document, "serializing RunManifest")
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunManifest":
        """Parse and validate a manifest document."""
        _raise_on_problems(document, "parsing manifest")
        return cls(
            kind=document["kind"],
            algorithm=document["algorithm"],
            parameters=document["parameters"],
            naming=document["naming"],
            adversary=document.get("adversary"),
            backend=document["backend"],
            workers=document["workers"],
            host=document["host"],
            git_rev=document.get("git_rev"),
            outcome=document["outcome"],
            telemetry=document["telemetry"],
            created_at=document["created_at"],
            schema=document["schema"],
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write this manifest as one pretty-printed JSON file."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return target

    def verdict(self) -> str:
        """The outcome's verdict, or ``"?"`` when the producer omitted it."""
        verdict = self.outcome.get("verdict")
        return verdict if isinstance(verdict, str) else "?"


def _raise_on_problems(document: Any, context: str) -> None:
    problems = validate_manifest(document)
    if problems:
        raise ManifestValidationError(
            f"{context}: {len(problems)} schema problem(s): "
            + "; ".join(problems)
        )


def write_manifests_ndjson(
    manifests: Iterable[RunManifest], path: Union[str, Path]
) -> Path:
    """Write manifests as NDJSON, one compact document per line."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(manifest.to_dict(), sort_keys=True) for manifest in manifests
    ]
    target.write_text("\n".join(lines) + ("\n" if lines else ""))
    return target


def load_manifests(
    path: Union[str, Path],
    tolerate_truncated_tail: bool = False,
) -> List[RunManifest]:
    """Load and validate manifests from a file or a directory.

    * a ``.ndjson`` file yields one manifest per non-blank line;
    * any other file is read as a single JSON manifest;
    * a directory yields every ``*.json`` and ``*.ndjson`` inside it
      (sorted by name, non-recursive) — ``BENCH_explore.json`` style
      non-manifest JSON neighbours are rejected loudly by validation,
      so point this at a dedicated telemetry directory.

    ``tolerate_truncated_tail=True`` lets the *final* non-blank line of
    an ``.ndjson`` stream be unparseable JSON: it is dropped with a
    :class:`TruncatedManifestWarning` instead of raising.  That is the
    exact state a writer killed mid-append leaves behind — any earlier
    torn line is corruption, not a crash artifact, and still raises.

    Raises :class:`~repro.errors.ManifestValidationError` on the first
    file that fails validation (naming the file), and ``OSError`` /
    ``json.JSONDecodeError`` for unreadable input.
    """
    source = Path(path)
    if source.is_dir():
        files = sorted(
            entry
            for entry in source.iterdir()
            if entry.suffix in (".json", ".ndjson")
        )
        if not files:
            raise ManifestValidationError(
                f"{source}: directory contains no .json or .ndjson manifests"
            )
        manifests: List[RunManifest] = []
        for entry in files:
            manifests.extend(
                load_manifests(entry, tolerate_truncated_tail)
            )
        return manifests
    if source.suffix == ".ndjson":
        lines = [
            line for line in source.read_text().splitlines() if line.strip()
        ]
        documents: List[Any] = []
        for position, line in enumerate(lines):
            try:
                documents.append(json.loads(line))
            except json.JSONDecodeError:
                if tolerate_truncated_tail and position == len(lines) - 1:
                    warnings.warn(
                        f"{source}: dropped truncated final line "
                        "(writer killed mid-append?)",
                        TruncatedManifestWarning,
                        stacklevel=2,
                    )
                    break
                raise
    else:
        documents = [json.loads(source.read_text())]
    loaded: List[RunManifest] = []
    for index, document in enumerate(documents):
        try:
            loaded.append(RunManifest.from_dict(document))
        except ManifestValidationError as exc:
            position = f", line {index + 1}" if len(documents) > 1 else ""
            raise ManifestValidationError(f"{source}{position}: {exc}") from None
    return loaded
