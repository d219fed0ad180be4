"""The ``omega-calc`` entry point run as a real process.

Each case runs ``python -m omegacalc.cli`` in a fresh interpreter and
compares its stdout, stderr and exit code with ``cli.main`` called in
this process on the same argv and stdin.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omegacalc import cli

from test_cli import ERROR_GOLDEN, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

# Exit codes 0 (plain, json, a table, every command kind), 1, 2 and 3.
SAMPLE = [GOLDEN[i][0] for i in (0, 16, 25, 26, 29, 37, 39, 44)]
SAMPLE += [ERROR_GOLDEN[i][0] for i in (0, 1, 3, 4)]
ARGV = SAMPLE + [
    ["--help"],
    ["eval", "--help"],
    ["foo"],
    [],
    ["--format", "json", "ode", "poly[0,1]", "--p", "2", "--order", "2"],
]


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    """argparse wraps help to the terminal width; fix it for both sides."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("OMEGA_MAX_ORDER", raising=False)


def in_process(argv, stdin="", stdout=True):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process;
    ``stdout=False`` runs it as a process whose stdout is closed, with
    ``sys.stdout`` None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out if stdout else None), \
            contextlib.redirect_stderr(err):
        old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")


def as_process(argv, stdin="", stdout=True):
    """(exit code, stdout, stderr) of ``python -m omegacalc.cli argv``;
    ``stdout=False`` closes the child's stdout before it starts."""
    command = [sys.executable, "-m", "omegacalc.cli", *argv]
    if not stdout:
        command = ["sh", "-c", 'exec "$0" "$@" >&-', *command]
    proc = subprocess.run(command, input=stdin, capture_output=True, encoding="utf-8",
                          env=_child_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def as_broken_pipe(argv, stdin, unbuffered, stderr_too=False):
    """(exit code, stdout, stderr) of ``python -m omegacalc.cli argv`` whose
    stdout is a pipe with its read end already closed, so every write to it
    fails; ``unbuffered`` sets PYTHONUNBUFFERED, and ``stderr_too`` puts
    stderr on the same pipe, as ``2>&1 | true`` does."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "omegacalc.cli", *argv], input=stdin,
                              stdout=write_end,
                              stderr=write_end if stderr_too else subprocess.PIPE,
                              encoding="utf-8", env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, "", proc.stderr or ""


@pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_process_matches_main(argv):
    assert as_process(argv) == in_process(argv)


@pytest.mark.parametrize("stdin,code", [
    ("1+o\nsqrt(1+o)\n\n(1+o)^-1\n", 1),
    ("1+o\nsqrt(1+o)\n", 0),
    ("1+o\n1/0\n", 2),
])
def test_stdin_batch_matches_main(stdin, code):
    got = as_process(["--order", "3", "eval", "-"], stdin)
    assert got == in_process(["--order", "3", "eval", "-"], stdin)
    assert got[0] == code


@pytest.mark.parametrize("argv,code,err", [
    (["eval", "1+o"], 0, ""),
    (["eval", "1/0"], 2, "error: inverse of zero\n"),
    (["eval", "("], 1, "error: parse error at offset 1: expected integer or name "
                       "or '(' or '-'; found end of input\n"),
    (["--help"], 0, None),  # argparse prints the help on stderr instead
])
def test_closed_stdout(argv, code, err):
    """With stdout closed the result is dropped: the exit code and stderr stay."""
    got = as_process(argv, stdout=False)
    assert got == in_process(argv, stdout=False)
    assert got[:2] == (code, "")
    if err is not None:
        assert got[2] == err


# Each case by its test id: (argv, stdin).
BROKEN_PIPE = {
    "eval 1+o": (["eval", "1+o"], ""),
    # about 2 MB, more than the pipe and stdout buffers hold
    "eval (1+o)^3000": (["eval", "(1+o)^3000"], ""),
    "-i": (["-i"], "1/0\n1+o\n2*o\n"),
    "eval -": (["eval", "-"], "1+o\n2*o\n"),
    "eval 1/0": (["eval", "1/0"], ""),
    "-i error after a result": (["-i"], "1+o\n1/0\n"),
}
# The stderr of these shares the gone pipe; (1+o)^3000 takes seconds and
# adds nothing on stderr.
STDERR_TOO = {name: case for name, case in BROKEN_PIPE.items() if "3000" not in name}
STDERR_TOO["eval ("] = (["eval", "("], "")
# argparse's own usage errors: Python 3.10's argparse lets the write's
# BrokenPipeError through.
STDERR_TOO["usage error"] = (["foo"], "")
STDERR_TOO["no command"] = ([], "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,stdin", BROKEN_PIPE.values(), ids=BROKEN_PIPE)
def test_broken_pipe(argv, stdin, unbuffered):
    """A reader that has gone drops the result as a closed stdout does:
    no traceback, and the exit code and stderr of the computation."""
    assert as_broken_pipe(argv, stdin, unbuffered) == in_process(argv, stdin, stdout=False)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_broken_pipe_help(unbuffered):
    assert as_broken_pipe(["--help"], "", unbuffered) == (0, "", "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,stdin", STDERR_TOO.values(), ids=STDERR_TOO)
def test_broken_pipe_with_stderr(argv, stdin, unbuffered):
    """With stderr on the gone pipe too, the exit code is the computation's."""
    code = in_process(argv, stdin, stdout=False)[0]
    assert as_broken_pipe(argv, stdin, unbuffered, stderr_too=True) == (code, "", "")
