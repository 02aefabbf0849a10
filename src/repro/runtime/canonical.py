"""Canonical state encoding and symmetry reduction for the explorer.

The bounded model checker (:mod:`repro.runtime.exploration`) deduplicates
global states.  This module supplies the keys it deduplicates on, at two
levels of aggressiveness:

**Compact encoding** (always on).  A captured global state is a nested
tuple of register values, local-state dataclasses and flags; hashing and
storing millions of them is the explorer's main cost.  A
:class:`Canonicalizer` maps every distinct register value and local
state to a *content-addressed* 8-byte digest (:func:`stable_encode` +
BLAKE2b, memoised per value) and packs one global state into a flat
``bytes`` key — one digest per register plus a digest and a status byte
per process.  Because the digest depends only on the value's content —
not on interning order, process identity or ``PYTHONHASHSEED`` — two
canonicalizers built from the same instance in *different OS processes*
produce identical keys, so a graph serialised in one process
(``StateGraph.to_bytes()``) compares byte for byte with one serialised
in another.  Key equality coincides with the
equality the seed explorer used up to BLAKE2b collisions on 64-bit
digests (probability ≈ ``n²/2⁶⁵`` for ``n`` distinct values — about
``10⁻⁸`` even for a billion-value walk, and a collision could only
cause a false *merge*, never a false violation).

**Symmetry reduction** (opt-in, :func:`build_canonicalizer`).  The
paper's model is symmetric twice over — memory anonymity (§1: register
names are private) and process symmetry (§2: identifiers are only
written and compared) — so many reachable states are images of each
other under a *naming automorphism*.  Formally an admissible symmetry is
a triple ``g = (sigma, pi, nu)`` of a process permutation ``sigma``, a
physical-register permutation ``pi`` and a value renaming ``nu`` such
that

* ``pi`` agrees with the naming assignment: for every process ``p`` and
  view index ``j``, ``pi(perm_p[j]) = perm_sigma(p)[j]`` — i.e. ``pi``
  is *determined* by ``sigma`` (``pi = perm_sigma(p) o perm_p^-1``) and
  must come out the same for every ``p``.  Under
  :class:`~repro.memory.naming.IdentityNaming` this forces ``pi = id``;
  equispaced :class:`~repro.memory.naming.RingNaming` couples register
  rotations with cyclic process shifts (the Theorem 3.4 geometry).
* ``sigma`` only maps a process onto a *twin*: same automaton class,
  same :meth:`~repro.runtime.automaton.ProcessAutomaton.symmetry_signature`
  twin key, trusted hooks (see :func:`hook_owner`).
* ``nu`` is induced by the inputs (``nu(input_p) = input_sigma(p)``) and
  must be a consistent bijection.

The set of admissible triples is closed under composition and inverse
(it is the automorphism group of the labelled instance), so mapping each
state to the lexicographic minimum of its orbit is a well-defined
canonical form, and two states receive the same key iff they lie in the
same orbit.  Since the automata treat identifiers, inputs and register
names exactly as the labels ``g`` permutes, ``g`` is a bisimulation:
the subtree under ``g . s`` is the ``g``-image of the subtree under
``s``, with identical verdicts for any symmetric invariant.  The
soundness argument is spelled out in docs/EXPLORATION.md.

**Integer orbit keys** (the compiled kernel's quotient walk).  Over a
compiled program the same keys can be integers:
:meth:`PackedDigestTables.orbit_weights` ranks every register digest
and every slot digest + flag in sorted byte order and packs the ranks
into fixed bit fields, in key order, so two integer keys compare
exactly as their bytes keys do.  An integer key is a sum of per-position
weights, so the walk updates one int per group element per step instead
of joining a bytes key per element.  Bytes keys remain the format
everywhere else.  :meth:`Canonicalizer._key`, the interpreter's
reference, digests values as the walk meets them, so it has no finished
set of digests to rank.  :meth:`PackedDigestTables.batch_keys` serves
the benchmark's layer replay (``perfbench/layers.py``).

When an instance offers no usable structure the builder degrades to a
:class:`TrivialCanonicalizer` — compact encoding only, bit-for-bit the
seed explorer's semantics.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, fields, is_dataclass
from hashlib import blake2b
from itertools import permutations, product
from math import factorial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.runtime.automaton import ProcessAutomaton
from repro.runtime.kernel import GlobalState
from repro.runtime.scheduler import Scheduler
from repro.runtime.system import System
from repro.types import ProcessId

#: A packed global-state key.  Content-addressed: comparable between
#: canonicalizers built for the same instance, across OS processes.
CanonicalKey = bytes

#: The hook bundle an automaton class must override as a unit to opt in.
SYMMETRY_HOOKS: Tuple[str, ...] = (
    "symmetry_signature",
    "state_footprint",
    "rename_state_footprint",
    "rename_register_value",
)

#: Class-dict entries that carry no behaviour (safe to ignore when
#: checking whether a subclass overrides anything past the hook owner).
_INERT_NAMES = frozenset(
    {
        "__doc__",
        "__module__",
        "__qualname__",
        "__annotations__",
        "__dict__",
        "__weakref__",
        "__slots__",
        "__abstractmethods__",
        "_abc_impl",
        "__parameters__",
        "__orig_bases__",
        "__firstlineno__",
        "__static_attributes__",
    }
)

_RenameFn = Callable[[Any, Any, Any], Any]
_FootprintFn = Callable[[Any], Any]


# ---------------------------------------------------------------------------
# Content-addressed value digests
# ---------------------------------------------------------------------------

#: Digest width.  8 bytes keeps keys half the size of raw object hashes
#: while making accidental collisions (~n²/2⁶⁵) negligible at any state
#: count this explorer can reach.
DIGEST_SIZE = 8

_FLAG_BYTES: Tuple[bytes, ...] = (b"\x00", b"\x01", b"\x02", b"\x03")


def stable_encode(value: Any) -> bytes:
    """Deterministic, injective byte encoding of a model value.

    The encoding depends only on the value's *content*: it is identical
    across OS processes, interpreter runs and ``PYTHONHASHSEED`` values —
    the property that makes state keys comparable between processes.
    Containers are tagged and length-delimited (so ``(1, 2)``, ``[1, 2]``
    and ``"12"`` never collide); sets and dicts are serialised in sorted
    -encoding order; dataclasses (the repo's local-state idiom) encode as
    their qualified class name plus field values.  Anything else falls
    back to ``repr``, which is deterministic for the value-semantics
    objects the model traffics in (and a new local-state representation
    should prefer a dataclass anyway).
    """
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        out.append(b"I%d;" % value)
    elif type(value) is str:
        encoded = value.encode("utf-8")
        out.append(b"S%d:" % len(encoded))
        out.append(encoded)
    elif type(value) is bytes:
        out.append(b"B%d:" % len(value))
        out.append(value)
    elif type(value) is float:
        out.append(b"D")
        out.append(repr(value).encode("ascii"))
        out.append(b";")
    elif type(value) is tuple:
        out.append(b"(")
        for item in value:
            _encode_into(item, out)
        out.append(b")")
    elif type(value) is list:
        out.append(b"[")
        for item in value:
            _encode_into(item, out)
        out.append(b"]")
    elif type(value) in (frozenset, set):
        out.append(b"{")
        for encoded in sorted(stable_encode(item) for item in value):
            out.append(encoded)
        out.append(b"}")
    elif type(value) is dict:
        out.append(b"<")
        entries = sorted(
            (stable_encode(key), stable_encode(item))
            for key, item in value.items()
        )
        for encoded_key, encoded_item in entries:
            out.append(encoded_key)
            out.append(encoded_item)
        out.append(b">")
    elif is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        out.append(b"C")
        out.append(f"{cls.__module__}.{cls.__qualname__}".encode("utf-8"))
        out.append(b"(")
        for field in fields(value):
            _encode_into(getattr(value, field.name), out)
        out.append(b")")
    else:
        cls = type(value)
        tag = f"R{cls.__module__}.{cls.__qualname__}:{value!r};"
        out.append(tag.encode("utf-8"))


def _digest(value: Any) -> bytes:
    """The 8-byte content digest a state key stores per slot."""
    return blake2b(stable_encode(value), digest_size=DIGEST_SIZE).digest()


def _identity_rename(value: Any, pids_renamed: Any, values_renamed: Any) -> Any:
    """The identity renaming — used wherever a hook is not trusted."""
    return value


def _definer(cls: type, name: str) -> Optional[type]:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


@dataclass(frozen=True)
class HookClaims:
    """What a trusted hook bundle claims about its automaton's writes.

    ``renames_pids``/``renames_values`` report whether the owner's
    ``rename_register_value`` body actually *uses* the corresponding
    renaming table — i.e. whether the hooks claim that register values
    can carry process identifiers / input values.  The footprint lint
    pass cross-checks these claims against the write footprint inferred
    from ``next_op``: an automaton that writes its pid through a hook
    bundle that never renames pids would silently break the symmetry
    reduction's bisimulation argument.
    """

    owner: type
    renames_pids: bool
    renames_values: bool


def hook_claims(cls: type) -> Optional[HookClaims]:
    """The renaming claims of ``cls``'s trusted hook bundle, or ``None``.

    ``None`` means no trusted bundle (no owner — subclass drift, or the
    defaults) or the owner's source is unavailable; callers should then
    skip the cross-check rather than guess.
    """
    owner = hook_owner(cls)
    if owner is None:
        return None
    rename = vars(owner).get("rename_register_value")
    if rename is None:
        return None
    try:
        source, _ = inspect.getsourcelines(rename)
        tree = ast.parse(textwrap.dedent("".join(source)))
    except (OSError, TypeError, SyntaxError):
        return None
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    return HookClaims(
        owner=owner,
        renames_pids="pids_renamed" in used,
        renames_values="values_renamed" in used,
    )


def hook_owner(cls: type) -> Optional[type]:
    """The class whose symmetry hooks may be trusted for ``cls``, or None.

    The hooks make semantic claims about the behaviour methods
    (``next_op``/``apply``/...), so they are only trusted when

    * all four :data:`SYMMETRY_HOOKS` are overridden *by one class* (not
      inherited from :class:`ProcessAutomaton`'s defaults), and
    * no class more derived than that owner defines anything at all — a
      subclass that overrides or adds any method/attribute may have
      changed behaviour the hooks do not know about (test mutants do
      exactly this), so it falls back to the conservative defaults.
    """
    owners: Set[type] = set()
    for hook in SYMMETRY_HOOKS:
        definer = _definer(cls, hook)
        if definer is None or definer is ProcessAutomaton:
            return None
        owners.add(definer)
    if len(owners) != 1:
        return None
    owner = owners.pop()
    for klass in cls.__mro__:
        if klass is owner:
            return owner
        if any(name not in _INERT_NAMES for name in vars(klass)):
            return None
    return None


class _GroupElement:
    """One admissible non-identity symmetry ``(sigma, pi, nu)``.

    Stores the *pull-back* forms the encoder needs (which source feeds
    each target slot) plus per-element memo tables mapping raw register
    values / footprints straight to the content digest of their rename.
    """

    __slots__ = (
        "source_phys",
        "source_slot",
        "pids_renamed",
        "values_renamed",
        "value_ids",
        "footprint_ids",
    )

    def __init__(
        self,
        source_phys: Tuple[int, ...],
        source_slot: Tuple[int, ...],
        pids_renamed: Dict[ProcessId, ProcessId],
        values_renamed: Dict[Any, Any],
    ) -> None:
        self.source_phys = source_phys
        self.source_slot = source_slot
        self.pids_renamed = pids_renamed
        self.values_renamed = values_renamed
        self.value_ids: Dict[Any, bytes] = {}
        self.footprint_ids: Dict[Any, bytes] = {}


@dataclass(frozen=True)
class PackedCandidate:
    """One group element's digest tables over a packed-state domain.

    ``value_digest[vi]`` is the digest of the *renamed* register value
    ``values[vi]``; ``slot_digest[slot][si]`` is the digest of slot
    ``slot``'s renamed footprint for local state ``si`` with the source
    slot's flag byte appended — exactly the bytes :meth:`Canonicalizer._key`
    contributes for that element, reindexed by packed-state components.
    """

    source_phys: Tuple[int, ...]
    source_slot: Tuple[int, ...]
    value_digest: Tuple[bytes, ...]
    slot_digest: Tuple[Tuple[bytes, ...], ...]


@dataclass(frozen=True)
class PackedDigestTables:
    """Digest tables for computing canonical keys from packed states.

    Produced by :meth:`Canonicalizer.packed_digest_tables` for the
    compiled kernel: ``value_raw[vi]`` and ``slot_raw[slot][si]``
    (footprint digest + flag byte) concatenate to the raw key, and each
    :class:`PackedCandidate` yields one orbit candidate; the canonical
    key is the minimum — byte-identical to :meth:`Canonicalizer._key`
    because every digest passed through the same intern/digest path.

    The ``batch_*`` methods walk a *flat* integer batch (``m + nslots``
    ints per state, the packed layout, concatenated — an
    ``array('q')`` or any integer sequence) and digest every state in
    one pass, building bytes keys; the benchmark's layer replay
    (``perfbench/layers.py``) calls them.

    :meth:`orbit_weights` turns the same tables into integer keys with
    the bytes keys' order, for the compiled serial walk, which keys
    every successor in one process and can update a key per step.
    """

    value_raw: Tuple[bytes, ...]
    slot_raw: Tuple[Tuple[bytes, ...], ...]
    candidates: Tuple[PackedCandidate, ...]

    def orbit_weights(self, m: int) -> PackedOrbitWeights:
        """Integer keys that order exactly like this table's bytes keys.

        A bytes key is ``m`` register fields of :data:`DIGEST_SIZE`
        bytes followed by one slot field (digest + flag byte) per slot.
        Register fields get ranks among every register digest in the
        tables, slot fields ranks among every slot digest + flag, both
        in sorted byte order, so a rank comparison is the bytes
        comparison of the field.  Each field's rank is shifted to a
        fixed bit offset (the first field highest, each field as wide
        as its largest rank), so comparing two integer keys compares
        their fields in order, first difference deciding — exactly how
        ``bytes`` compare two equal-length keys made of fixed-width
        fields.  Equal ints are therefore equal bytes keys and the
        ``<`` order is the same, so the minimum of a candidate vector is
        the orbit representative :meth:`batch_keys` picks.

        A key is a sum over packed positions, which is what lets a walk
        update it per step: see :class:`PackedOrbitWeights`.
        """
        nslots = len(self.slot_raw)
        elements: List[
            Tuple[Sequence[int], Sequence[int], Sequence[bytes], Sequence[Sequence[bytes]]]
        ] = [(range(m), range(nslots), self.value_raw, self.slot_raw)]
        elements.extend(
            (cand.source_phys, cand.source_slot, cand.value_digest, cand.slot_digest)
            for cand in self.candidates
        )
        value_rank = _byte_ranks(
            digest for _, _, value_digest, _ in elements for digest in value_digest
        )
        slot_rank = _byte_ranks(
            digest
            for _, _, _, slot_digest in elements
            for row in slot_digest
            for digest in row
        )
        value_bits = (len(value_rank) - 1).bit_length()
        slot_bits = (len(slot_rank) - 1).bit_length()
        # Field t of the key (registers first, then slots) sits above
        # every later field.
        slot_shift = [slot_bits * (nslots - 1 - t) for t in range(nslots)]
        value_shift = [
            slot_bits * nslots + value_bits * (m - 1 - j) for j in range(m)
        ]
        by_element: List[Tuple[Tuple[int, ...], ...]] = []
        for source_phys, source_slot, value_digest, slot_digest in elements:
            # Position q's table for this element: the rank of the field
            # q's index maps to, at the offset of the field q feeds.
            tables = [[0] * len(value_digest) for _ in range(m)]
            tables.extend([0] * len(row) for row in slot_digest)
            ranks = [value_rank[digest] for digest in value_digest]
            for j, phys in enumerate(source_phys):
                shift = value_shift[j]
                table = tables[phys]
                for x, rank in enumerate(ranks):
                    table[x] += rank << shift
            for t, slot in enumerate(source_slot):
                shift = slot_shift[t]
                table = tables[m + slot]
                for x, digest in enumerate(slot_digest[slot]):
                    table[x] += slot_rank[digest] << shift
            by_element.append(tuple(tuple(table) for table in tables))
        return PackedOrbitWeights(
            by_element=tuple(by_element),
            by_position=tuple(
                tuple(element[q] for element in by_element)
                for q in range(m + nslots)
            ),
        )

    def batch_keys(
        self, flat: Sequence[int], m: int
    ) -> List[Tuple[bytes, bytes]]:
        """``(canonical_key, raw_key)`` pairs for a flat packed batch.

        The canonical key is the minimum over this table's orbit
        candidates, exactly as :meth:`Canonicalizer._key` computes it;
        with no candidates the two keys coincide (shared objects, no
        copy).
        """
        value_raw = self.value_raw
        slot_raw = self.slot_raw
        candidates = self.candidates
        nslots = len(slot_raw)
        stride = m + nslots
        out: List[Tuple[bytes, bytes]] = []
        for base in range(0, len(flat), stride):
            parts = [value_raw[flat[base + i]] for i in range(m)]
            for s in range(nslots):
                parts.append(slot_raw[s][flat[base + m + s]])
            raw = b"".join(parts)
            if not candidates:
                out.append((raw, raw))
                continue
            best = raw
            for cand in candidates:
                cparts = [
                    cand.value_digest[flat[base + phys]]
                    for phys in cand.source_phys
                ]
                for s in cand.source_slot:
                    cparts.append(cand.slot_digest[s][flat[base + m + s]])
                joined = b"".join(cparts)
                if joined < best:
                    best = joined
            out.append((best, raw))
        return out


def _byte_ranks(digests: Iterable[bytes]) -> Dict[bytes, int]:
    """Each distinct byte string's index in sorted order."""
    return {digest: rank for rank, digest in enumerate(sorted(set(digests)))}


class PackedOrbitWeights:
    """Integer orbit keys of packed states, built by
    :meth:`PackedDigestTables.orbit_weights`.

    Group element ``g`` (``0`` is the identity, then the table's
    candidates in order) keys a packed state ``p`` as
    ``sum(by_element[g][q][p[q]] for q in positions)``; element 0's int
    is the raw key and the minimum over all elements is the canonical
    key.  ``by_position[q][g]`` is the same table indexed by position
    first: a step that changes positions ``q`` (the stepping slot, plus
    a register on a write) moves element ``g``'s key by
    ``by_position[q][g][new] - by_position[q][g][old]`` for each of them.
    """

    __slots__ = ("by_element", "by_position")

    def __init__(
        self,
        by_element: Tuple[Tuple[Tuple[int, ...], ...], ...],
        by_position: Tuple[Tuple[Tuple[int, ...], ...], ...],
    ) -> None:
        self.by_element = by_element
        self.by_position = by_position

    def vector(self, packed: Sequence[int]) -> List[int]:
        """One int key per group element, identity (the raw key) first."""
        return [
            sum(table[x] for table, x in zip(tables, packed))
            for tables in self.by_element
        ]


class Canonicalizer:
    """Maps a global state to a canonical content-addressed key.

    :meth:`key_of_state` encodes a
    :data:`~repro.runtime.kernel.GlobalState` *value* without touching
    any live object, and returns ``(canonical_key, raw_key)``: the
    minimum of the orbit under the configured group, and the identity
    encoding.  With an empty group the two coincide and the
    canonicalizer is a pure compact-encoding layer.  Keys are
    content-addressed (see module docstring), so they agree across
    canonicalizers and OS processes.

    Build instances with :func:`build_canonicalizer` (or
    :class:`TrivialCanonicalizer` directly).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        footprint_fns: List[Optional[_FootprintFn]],
        rename_footprint_fns: List[_RenameFn],
        rename_value_fn: _RenameFn,
        elements: List[_GroupElement],
        group_capped: bool = False,
    ) -> None:
        self.pid_order: Tuple[ProcessId, ...] = tuple(sorted(scheduler.pids))
        self._footprint_fns = footprint_fns
        self._rename_footprint_fns = rename_footprint_fns
        self._rename_value_fn = rename_value_fn
        self._elements = elements
        #: Order of the symmetry group being reduced by (>= 1).
        self.group_order: int = len(elements) + 1
        #: True when candidate enumeration was skipped as too large and
        #: the group conservatively collapsed to the identity.
        self.group_capped: bool = group_capped
        #: Whether any per-automaton footprint compression is active.
        self.uses_footprints: bool = any(
            fn is not None for fn in footprint_fns
        )
        self._intern: Dict[Any, bytes] = {}

    def describe(self) -> str:
        """One-line configuration summary for benchmark records."""
        capped = ", capped" if self.group_capped else ""
        return (
            f"group={self.group_order}{capped}, "
            f"footprints={'on' if self.uses_footprints else 'off'}"
        )

    @property
    def interned_objects(self) -> int:
        """Distinct register values / footprints digested so far."""
        return len(self._intern)

    # -- encoding ----------------------------------------------------------

    def key_of_state(
        self, global_state: GlobalState
    ) -> Tuple[CanonicalKey, CanonicalKey]:
        """``(canonical_key, raw_key)`` of a captured global-state value.

        Pure: reads only the tuple (whose per-process part is sorted by
        pid, matching :attr:`pid_order`), never a live object.
        """
        registers, locals_part = global_state
        slots = [
            (state, halted, crashed)
            for _pid, state, halted, crashed in locals_part
        ]
        return self._key(registers, slots)

    def _key(
        self,
        values: Sequence[Any],
        slots: Sequence[Tuple[Any, bool, bool]],
    ) -> Tuple[CanonicalKey, CanonicalKey]:
        intern = self._intern
        parts: List[bytes] = []
        for value in values:
            value_digest = intern.get(value)
            if value_digest is None:
                value_digest = _digest(value)
                intern[value] = value_digest
            parts.append(value_digest)
        footprints: List[Any] = []
        flags: List[bytes] = []
        for slot, (state, halted, crashed) in enumerate(slots):
            footprint_fn = self._footprint_fns[slot]
            footprint = state if footprint_fn is None else footprint_fn(state)
            footprints.append(footprint)
            footprint_digest = intern.get(footprint)
            if footprint_digest is None:
                footprint_digest = _digest(footprint)
                intern[footprint] = footprint_digest
            flag = _FLAG_BYTES[(2 if halted else 0) | (1 if crashed else 0)]
            flags.append(flag)
            parts.append(footprint_digest)
            parts.append(flag)
        raw = b"".join(parts)
        if not self._elements:
            return raw, raw
        best = raw
        for element in self._elements:
            candidate: List[bytes] = []
            value_ids = element.value_ids
            for phys in element.source_phys:
                value = values[phys]
                value_digest = value_ids.get(value)
                if value_digest is None:
                    renamed = self._rename_value_fn(
                        value, element.pids_renamed, element.values_renamed
                    )
                    value_digest = intern.get(renamed)
                    if value_digest is None:
                        value_digest = _digest(renamed)
                        intern[renamed] = value_digest
                    value_ids[value] = value_digest
                candidate.append(value_digest)
            footprint_ids = element.footprint_ids
            for slot in element.source_slot:
                footprint = footprints[slot]
                cache_key = (slot, footprint)
                footprint_digest = footprint_ids.get(cache_key)
                if footprint_digest is None:
                    renamed_fp = self._rename_footprint_fns[slot](
                        footprint, element.pids_renamed, element.values_renamed
                    )
                    footprint_digest = intern.get(renamed_fp)
                    if footprint_digest is None:
                        footprint_digest = _digest(renamed_fp)
                        intern[renamed_fp] = footprint_digest
                    footprint_ids[cache_key] = footprint_digest
                candidate.append(footprint_digest)
                candidate.append(flags[slot])
            packed = b"".join(candidate)
            if packed < best:
                best = packed
        return best, raw

    def packed_digest_tables(
        self,
        values: Sequence[Any],
        slot_states: Sequence[Sequence[Any]],
        slot_halted: Sequence[Sequence[bool]],
        slot_crashed: Sequence[bool],
    ) -> PackedDigestTables:
        """Precompute the digests :meth:`_key` would produce, by index.

        The compiled kernel interns register values and per-slot local
        states into indexed tables; this method runs
        every (value, footprint, rename) through the *same* intern and
        digest path as :meth:`_key`, so keys assembled from the returned
        tables are byte-identical to ``key_of_state`` on the unpacked
        state.  Raises whatever a footprint or rename hook raises —
        callers treat that as a compilation failure.
        """
        intern = self._intern

        def digest_of(value: Any) -> bytes:
            cached = intern.get(value)
            if cached is None:
                cached = _digest(value)
                intern[value] = cached
            return cached

        value_raw = tuple(digest_of(value) for value in values)
        footprints: List[List[Any]] = []
        flags: List[List[bytes]] = []
        slot_raw_rows: List[Tuple[bytes, ...]] = []
        for slot, states in enumerate(slot_states):
            footprint_fn = self._footprint_fns[slot]
            fps = [
                state if footprint_fn is None else footprint_fn(state)
                for state in states
            ]
            footprints.append(fps)
            crashed_bit = 1 if slot_crashed[slot] else 0
            flag_row = [
                _FLAG_BYTES[(2 if halted else 0) | crashed_bit]
                for halted in slot_halted[slot]
            ]
            flags.append(flag_row)
            slot_raw_rows.append(
                tuple(
                    digest_of(fp) + flag
                    for fp, flag in zip(fps, flag_row)
                )
            )
        candidates: List[PackedCandidate] = []
        for element in self._elements:
            value_digest = tuple(
                digest_of(
                    self._rename_value_fn(
                        value, element.pids_renamed, element.values_renamed
                    )
                )
                for value in values
            )
            slot_digest_rows: List[Tuple[bytes, ...]] = []
            for slot, fps in enumerate(footprints):
                rename_fn = self._rename_footprint_fns[slot]
                slot_digest_rows.append(
                    tuple(
                        digest_of(
                            rename_fn(
                                fp,
                                element.pids_renamed,
                                element.values_renamed,
                            )
                        )
                        + flag
                        for fp, flag in zip(fps, flags[slot])
                    )
                )
            candidates.append(
                PackedCandidate(
                    source_phys=element.source_phys,
                    source_slot=element.source_slot,
                    value_digest=value_digest,
                    slot_digest=tuple(slot_digest_rows),
                )
            )
        return PackedDigestTables(
            value_raw=value_raw,
            slot_raw=tuple(slot_raw_rows),
            candidates=tuple(candidates),
        )


class TrivialCanonicalizer(Canonicalizer):
    """Compact encoding only — the conservative fallback.

    No footprints, no group: key equality is exactly raw global-state
    equality, i.e. the seed explorer's deduplication with cheaper keys.
    """

    def __init__(self, scheduler: Scheduler) -> None:
        count = len(scheduler.pids)
        identity = _identity_rename
        super().__init__(
            scheduler,
            footprint_fns=[None] * count,
            rename_footprint_fns=[identity] * count,
            rename_value_fn=identity,
            elements=[],
        )


# ---------------------------------------------------------------------------
# Group construction
# ---------------------------------------------------------------------------


def _block_permutations(
    order: List[ProcessId], blocks: List[List[ProcessId]]
) -> Iterator[Dict[ProcessId, ProcessId]]:
    """Every non-identity pid bijection permuting within twin blocks."""
    for images in product(*(permutations(block) for block in blocks)):
        sigma: Dict[ProcessId, ProcessId] = {}
        for block, image in zip(blocks, images):
            for source, target in zip(block, image):
                sigma[source] = target
        if any(source != target for source, target in sigma.items()):
            yield sigma


def _induced_register_permutation(
    sigma: Dict[ProcessId, ProcessId],
    perms: Dict[ProcessId, Tuple[int, ...]],
    size: int,
) -> Optional[Tuple[int, ...]]:
    """``pi^-1`` as a pull-back table, or None when no consistent ``pi``.

    ``pi`` is computed from one process as ``perm_sigma(p) o perm_p^-1``
    and verified against every other; the returned tuple maps each
    target physical slot to the source slot whose (renamed) value lands
    there.
    """
    first = next(iter(sigma))
    base = perms[first]
    image = perms[sigma[first]]
    pi = [0] * size
    for j in range(size):
        pi[base[j]] = image[j]
    for source, target in sigma.items():
        source_perm = perms[source]
        target_perm = perms[target]
        for j in range(size):
            if pi[source_perm[j]] != target_perm[j]:
                return None
    inverse = [0] * size
    for phys in range(size):
        inverse[pi[phys]] = phys
    return tuple(inverse)


def _induced_value_renaming(
    sigma: Dict[ProcessId, ProcessId], value_inputs: Dict[ProcessId, Any]
) -> Optional[Dict[Any, Any]]:
    """The value renaming ``nu`` forced by the inputs, or None if invalid."""
    renaming: Dict[Any, Any] = {}
    for source, target in sigma.items():
        source_value = value_inputs[source]
        target_value = value_inputs[target]
        if source_value is None and target_value is None:
            continue
        if source_value is None or target_value is None:
            return None
        if source_value in renaming:
            if renaming[source_value] != target_value:
                return None
        else:
            renaming[source_value] = target_value
    if len(set(renaming.values())) != len(renaming):
        return None
    return {
        source: target for source, target in renaming.items() if source != target
    }


def _admissible_elements(
    system: System,
    order: List[ProcessId],
    automata: List[ProcessAutomaton],
    owners: List[Optional[type]],
    max_group: int,
) -> Tuple[List[_GroupElement], bool]:
    """Enumerate the instance's non-identity symmetries (capped)."""
    cls = type(automata[0])
    if any(type(automaton) is not cls for automaton in automata):
        return [], False
    if not cls.SYMMETRIC:
        return [], False
    if any(owner is None for owner in owners):
        return [], False
    signatures = [automaton.symmetry_signature() for automaton in automata]
    if any(signature is None for signature in signatures):
        return [], False
    twin_keys: Dict[ProcessId, Any] = {}
    value_inputs: Dict[ProcessId, Any] = {}
    for pid, signature in zip(order, signatures):
        twin_key, value_input = signature
        twin_keys[pid] = twin_key
        value_inputs[pid] = value_input
    block_map: Dict[Any, List[ProcessId]] = {}
    for pid in order:
        block_map.setdefault(twin_keys[pid], []).append(pid)
    blocks = list(block_map.values())
    candidates = 1
    for block in blocks:
        candidates *= factorial(len(block))
        if candidates > max_group:
            return [], True
    memory = system.memory
    perms = {pid: memory.view(pid).permutation for pid in order}
    slot_of = {pid: slot for slot, pid in enumerate(order)}
    size = memory.size
    elements: List[_GroupElement] = []
    for sigma in _block_permutations(order, blocks):
        source_phys = _induced_register_permutation(sigma, perms, size)
        if source_phys is None:
            continue
        values_renamed = _induced_value_renaming(sigma, value_inputs)
        if values_renamed is None:
            continue
        inverse_sigma = {target: source for source, target in sigma.items()}
        source_slot = tuple(slot_of[inverse_sigma[pid]] for pid in order)
        pids_renamed = {
            source: target for source, target in sigma.items() if source != target
        }
        elements.append(
            _GroupElement(source_phys, source_slot, pids_renamed, values_renamed)
        )
    return elements, False


def build_canonicalizer(
    system: System,
    symmetry: bool = True,
    footprints: bool = True,
    max_group: int = 720,
) -> Canonicalizer:
    """The strongest sound canonicalizer for ``system``.

    Per process, footprint compression engages iff its automaton class
    has a trusted hook bundle (:func:`hook_owner`); the symmetry group is
    enumerated iff *every* automaton shares one trusted class and opts
    in via ``symmetry_signature``.  Anything less — mutants, mixed or
    asymmetric systems, ``None`` signatures — degrades that part to the
    identity, so the result is always sound for symmetric invariants and
    at worst a :class:`TrivialCanonicalizer`.

    ``max_group`` caps the *candidate* enumeration (the product of twin
    -block factorials); past it the group collapses to the identity and
    :attr:`Canonicalizer.group_capped` is set.
    """
    scheduler = system.scheduler
    order = sorted(scheduler.pids)
    automata = [scheduler.runtime(pid).automaton for pid in order]
    owners = [hook_owner(type(automaton)) for automaton in automata]
    identity: _RenameFn = _identity_rename
    footprint_fns: List[Optional[_FootprintFn]] = [
        automaton.state_footprint if (footprints and owner is not None) else None
        for automaton, owner in zip(automata, owners)
    ]
    rename_footprint_fns: List[_RenameFn] = [
        automaton.rename_state_footprint if owner is not None else identity
        for automaton, owner in zip(automata, owners)
    ]
    elements: List[_GroupElement] = []
    capped = False
    if symmetry and order:
        elements, capped = _admissible_elements(
            system, order, automata, owners, max_group
        )
    rename_value_fn: _RenameFn = (
        automata[0].rename_register_value if elements else identity
    )
    if not elements and not any(fn is not None for fn in footprint_fns):
        trivial = TrivialCanonicalizer(scheduler)
        trivial.group_capped = capped
        return trivial
    return Canonicalizer(
        scheduler,
        footprint_fns,
        rename_footprint_fns,
        rename_value_fn,
        elements,
        group_capped=capped,
    )
