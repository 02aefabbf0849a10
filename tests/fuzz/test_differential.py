"""Recorded-report pins: at a fixed seed the fuzzer's whole report —
schedules, violations, shrunk witnesses, coverage counts, the kernel
keys — hashes to the digest recorded here.

The digests are sha256 of ``json.dumps(report.to_dict(),
sort_keys=True)``.  They were recorded when two fuzz kernels (the
memo-id search and a packed-state stepper) still ran side by side and
gave byte-identical reports on every case below, under
``PYTHONHASHSEED`` 1 and 2; the one search left must keep reproducing
them.  The mutex targets run the deadlock-freedom oracle and mutual
exclusion; consensus, renaming and election run the
obstruction-freedom oracle and agreement, validity and unique names.
"""

import hashlib
import json

import pytest

from repro.fuzz.engine import run_fuzz
from repro.request import RunRequest


def report_digest(problem, instance, seed, episodes):
    report = run_fuzz(
        RunRequest(problem=problem, instance=instance, seed=seed),
        episodes=episodes,
    )
    document = report.to_dict()
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()
    return document, digest


@pytest.mark.parametrize("instance, expect_found, pinned", [
    ("figure-1-mutex-even-m", True,
     "c5aef3b59689f4649cd9b597b0dc8a9c7721daf68eecef9aad0c82f2168b7c21"),
    ("figure-1-mutex(m=3)", False,
     "268642d25bb1b6e3aa738b65cc777f80d591e4a806f68caf71a8df2d73e90a69"),
], ids=["figure-1-mutex-even-m", "figure-1-mutex(m=3)"])
def test_mutex_reports_are_pinned(instance, expect_found, pinned):
    document, digest = report_digest("figure-1-mutex", instance, 7, 8)
    assert bool(document["violations"]) == expect_found
    assert digest == pinned


OBSTRUCTION_FREE_PINS = [
    ("figure-2-consensus", "figure-2-consensus(n=2)", 1,
     "a0d9f9661a3e726d5466420b885372ee842cac7213b83dc7afb9617e92cc3161"),
    ("figure-2-consensus", "figure-2-consensus(n=2)", 7,
     "81ee358fd50b86693ff81f3eb46375cd556e95d2901d86d72869b71226e54093"),
    ("figure-2-consensus", "figure-2-consensus(n=2)", 12345,
     "2ea607d83f08ccd68598ddf7a119377daa1604529669c33030365e746dc9de72"),
    ("figure-2-consensus", "figure-2-consensus(n=3,equal)", 1,
     "051fe3cad9f45991c3be72f35c50d8fb46808e992cd9f1a916c4db438a339650"),
    ("figure-2-consensus", "figure-2-consensus(n=3,equal)", 7,
     "39da09e3cab8e8564a46fbf3898f0d59475a5c027a02f1ded40491e66d304dee"),
    ("figure-2-consensus", "figure-2-consensus(n=3,equal)", 12345,
     "537fee7763c332478d344d7ea0f789ebc5d759db985bbae7432c03ddd7c87120"),
    ("figure-3-renaming", "figure-3-renaming(n=2)", 1,
     "ab159c0d41c2ad1dba81db33d532a4c99f48201dc76c66a43458d4252562a12a"),
    ("figure-3-renaming", "figure-3-renaming(n=2)", 7,
     "bb98aa1313a355bd656bc809bec867b8230642568ba3b7e4325b2bbda498eb5f"),
    ("figure-3-renaming", "figure-3-renaming(n=2)", 12345,
     "c009e24ab4cde3ed47d2e568af59af4e973357498d1d5a36905c2e56d2072c55"),
    ("election", "election(n=2)", 1,
     "ae7a006c6a216bd7ad79c3e9f9023165b9eb07b9f93fe418e90e5f3c54caae60"),
    ("election", "election(n=2)", 7,
     "9baedbd0011ec1e51c950b13565ef8b02738c033b9fb3328866a6d32b4848299"),
    ("election", "election(n=2)", 12345,
     "f2c02277f9c25e2311a57a16ee97b178ef8cc890a3122545e0f952fe4a598534"),
]


@pytest.mark.parametrize(
    "problem, instance, seed, pinned", OBSTRUCTION_FREE_PINS,
    ids=[f"{instance}-{seed}" for _, instance, seed, _ in OBSTRUCTION_FREE_PINS],
)
def test_obstruction_free_reports_are_pinned(problem, instance, seed, pinned):
    document, digest = report_digest(problem, instance, seed, 16)
    assert document["steps"] > 0 and not document["violations"]
    assert digest == pinned
