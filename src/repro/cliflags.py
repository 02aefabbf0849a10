"""Uniform execution-flag surface across the CLI.

Every command that executes registry work shares one flag vocabulary —
``--kernel``, ``--workers``, ``--seed``, ``--max-states``.  Three of them
set the :class:`~repro.request.RunRequest` field of the same name;
``--workers`` is the farm's worker count, which goes straight to
:func:`~repro.farm.orchestrator.run_farm`.  A command either
*accepts* a flag (via the helpers below, so metavars/choices/help
never drift between parsers) or *explicitly rejects* it with the
uniform :func:`rejection_message` text saying why that execution axis
does not apply — silently ignoring an execution flag is the one
behaviour this module exists to rule out.

The accept/reject matrix is pinned by ``tests/test_cliflags.py``:

=============  ========  =========  ======  ============
command        --kernel  --workers  --seed  --max-states
=============  ========  =========  ======  ============
verify         accept    reject     reject  accept
sweep          reject    accept     reject  reject
fuzz           reject    accept     accept  accept
bench          accept    reject     accept  accept
=============  ========  =========  ======  ============

``bench`` is ``benchmarks/run_experiments.py --bench``, the script
``repro experiments`` runs; its rejections name ``repro experiments``.
``--kernel`` is the one engine selector: no command takes a
``--backend``, and argparse ends one as an unrecognized argument.
Every exhaustive walk is serial, so the commands that run one
(``verify``, ``bench``) take no worker count.  Fuzz episodes are
serial too, and step the interpreted kernel through the run's step
memo; parallelism is ``--workers`` over farm cells.

The two farm commands, ``sweep`` and ``fuzz``, register ``--workers``
through their shared front end, :mod:`repro.farm.cli`.
"""

from __future__ import annotations

import argparse
from typing import Any, Optional, Sequence

from repro.request import KERNELS

__all__ = [
    "rejection_message",
    "reject_flag",
    "positive_workers",
    "add_kernel_flag",
    "add_seed_flag",
    "add_max_states_flag",
]


def positive_workers(text: str) -> int:
    """``--workers`` operand parser: a positive int or a usage error.

    Shared by every command that accepts ``--workers`` so that
    ``--workers 0`` (or a negative count, or junk) dies with the same
    one-line message everywhere, pinned by ``tests/test_cliflags.py``.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive int, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive int, got {value!r}"
        )
    return value


def rejection_message(flag: str, command: str, reason: str) -> str:
    """The pinned error text for a rejected execution flag."""
    return f"{flag} is not supported by `repro {command}`: {reason}"


class _RejectFlag(argparse.Action):
    """Errors out with the uniform rejection text when the flag is used."""

    def __init__(
        self,
        option_strings: Sequence[str],
        dest: str,
        command: str = "",
        reason: str = "",
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("nargs", "?")  # swallow any operand too
        kwargs.setdefault("help", argparse.SUPPRESS)
        super().__init__(option_strings, dest, **kwargs)
        self._command = command
        self._reason = reason

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        parser.error(
            rejection_message(
                option_string or self.option_strings[0],
                self._command,
                self._reason,
            )
        )


def reject_flag(
    parser: argparse.ArgumentParser, flag: str, command: str, reason: str
) -> None:
    """Register ``flag`` as explicitly rejected (uniform error text)."""
    parser.add_argument(flag, action=_RejectFlag, command=command, reason=reason)


def add_kernel_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--kernel", choices=KERNELS, default="interpreted", help=help_text
    )


def add_seed_flag(
    parser: argparse.ArgumentParser, help_text: Optional[str] = None
) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help=help_text
        or "root RNG seed; the single source of every derived RNG",
    )


def add_max_states_flag(
    parser: argparse.ArgumentParser, help_text: Optional[str] = None
) -> None:
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help=help_text or "distinct-state budget",
    )
