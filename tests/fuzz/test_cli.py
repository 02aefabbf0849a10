"""How ``repro fuzz`` ends.

``0``/``1`` by expectation; ``1`` with an ``[error]`` line on stderr when
the run raises a typed error, in one-shot mode as in farm mode and with
or without ``--expect-violation``; ``2`` for mistakes on the command
line, before any work and without a farm directory.
"""

import pytest

from repro.__main__ import main

#: ladder-consensus simulates an unbounded register array up to 8
#: rounds; every seed's first episodes run a process past that horizon.
LADDER = ["fuzz", "--problem", "ladder-consensus", "--episodes", "16"]
HORIZON = (
    "ProtocolError: process 101 exceeded the simulation horizon of 8 "
    "ladder rounds; raise max_rounds (the algorithm itself uses an "
    "unbounded register array)"
)
SEEDS = ["1", "7", "12345"]


class TestRunErrors:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("expect", [[], ["--expect-violation"]],
                             ids=["plain", "expect-violation"])
    def test_one_shot_prints_the_error_and_exits_1(self, seed, expect, capsys):
        code = main(LADDER + ["--seed", seed] + expect)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"[error] ladder-consensus: {HORIZON}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("expect", [[], ["--expect-violation"]],
                             ids=["plain", "expect-violation"])
    def test_farm_mode_ends_alike(self, seed, expect, tmp_path, capsys):
        farm = ["--out", str(tmp_path / "farm")]
        code = main(LADDER + ["--seed", seed] + expect + farm)
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            f"[error] cell 0: {HORIZON}",
            f"[error] cell 1: {HORIZON}",
        ]


MUTEX = ["fuzz", "--problem", "figure-1-mutex", "--episodes", "4"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["--episodes", "-1"], "--episodes must be >= 0, got -1"),
        (["--families", "random,zigzag"],
         "unknown strategy family 'zigzag'; expected one of "
         "['lockstep', 'random', 'greedy', 'covering']"),
        (["--instance", "nope"],
         "'nope' is neither an instance label of 'figure-1-mutex'"),
        (["--max-steps", "0"],
         "RunRequest.max_steps must be a positive int, got 0"),
        (["--max-states", "0"],
         "RunRequest.max_states must be a positive int, got 0"),
    ], ids=["episodes", "families", "instance", "max-steps", "max-states"])
    @pytest.mark.parametrize("farm", [False, True], ids=["one-shot", "farm"])
    def test_exit_2_before_any_work(self, argv, message, farm, tmp_path, capsys):
        out = tmp_path / "farm"
        with pytest.raises(SystemExit) as excinfo:
            main(MUTEX + argv + (["--out", str(out)] if farm else []))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "[error]" not in err
        assert not out.exists()


def test_one_shot_refuses_farm_only_flags(capsys):
    # A one-shot run has no cells to retry or share out.
    for flag, operand, message in [
        ("--max-attempts", "2", "--max-attempts retries farm cells"),
        ("--workers", "2", "--workers needs a shared run table"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(MUTEX + [flag, operand])
        assert excinfo.value.code == 2
        assert f"error: {message}; add --out DIR" in capsys.readouterr().err


def test_a_clean_run_exits_0_and_names_its_kernel(capsys):
    assert main(MUTEX + ["--instance", "figure-1-mutex(m=3)"]) == 0
    assert "kernel=interpreted" in capsys.readouterr().out
