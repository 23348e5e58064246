"""The one report writer: in-place overwrites, modes, and that it stays the only one."""

import ast
import json
import os
import stat
from pathlib import Path

import pytest

import dgsum
import dgsum.cli
from dgsum.cli import EXIT_GATE, EXIT_OK, main, write_report

SRC = Path(dgsum.__file__).resolve().parent


def test_shorter_report_over_longer_leaves_only_new_bytes(tmp_path):
    path = tmp_path / "r.json"
    write_report(path, "x" * 1000 + "\n")
    write_report(path, "short\n")
    assert path.read_bytes() == b"short\n"
    # the cut is at the byte length, not the character length
    write_report(path, "é" * 10)
    write_report(path, "ü")
    assert path.read_bytes() == "ü".encode()
    write_report(path, "")
    assert path.read_bytes() == b""


def test_new_file_gets_the_mode_of_write_text(tmp_path):
    old = os.umask(0o027)
    try:
        write_report(tmp_path / "a", "x\n")
        (tmp_path / "b").write_text("x\n")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in "ab"]
    assert modes == [0o640, 0o640]


def test_partial_writes_are_continued(tmp_path, monkeypatch):
    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:7]))

    text = "".join(f"{i},{i * i}\n" for i in range(200))
    monkeypatch.setattr(os, "write", short_write)
    write_report(tmp_path / "s.csv", text)
    monkeypatch.undo()
    assert (tmp_path / "s.csv").read_text() == text
    assert len(sizes) == -(-len(text) // 7)


def _write_x(tmp_path, text):
    xfile = tmp_path / "X.txt"
    xfile.write_text(text)
    return str(xfile)


SUBCOMMANDS = {
    "sample": lambda tmp: ["sample", "-n", "1", "-m", "2", "-r", "2.0", "--samples", "2000", "--seed", "3"],
    "quality": lambda tmp: ["quality", "--x-file", _write_x(tmp, "1 0 1\n0 1 1\n"), "--seed", "4"],
    "kernel": lambda tmp: ["kernel", "--x-file", _write_x(tmp, "1 0 1 1\n0 1 1 -1\n"), "--seed", "4"],
    "tvd": lambda tmp: ["tvd", "--x-file", _write_x(tmp, "1 1\n"), "--exact", "--seed", "4"],
    "main": lambda tmp: ["main", "-n", "1", "-m", "2", "-s", "2.0", "--trials", "2", "--exact", "--seed", "11"],
}


def _snapshot(out: Path) -> dict:
    files = {}
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json":  # its wall clock differs between runs
            manifest = json.loads(data)
            del manifest["wall_clock_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[p.name] = data
    return files


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_rerun_into_one_out_dir_reproduces_reports(tmp_path, command):
    out = tmp_path / "run"
    argv = SUBCOMMANDS[command](tmp_path) + ["--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    first = _snapshot(out)
    assert len(first) >= 2
    for p in out.iterdir():  # stale, longer files from an earlier run
        p.write_bytes(p.read_bytes() + b"stale tail " * 50)
    assert main(argv) == EXIT_OK
    assert _snapshot(out) == first


@pytest.mark.parametrize("command, blocked", [
    *[(c, "manifest.json") for c in sorted(SUBCOMMANDS)],
    ("kernel", "kernel.json"),
    ("tvd", "tvd.json"),
])
def test_report_path_that_is_a_directory_exits_2_with_one_line(tmp_path, capsys, command, blocked):
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(SUBCOMMANDS[command](tmp_path) + ["--out-dir", str(out)]) == EXIT_GATE
    err = capsys.readouterr().err
    assert err == f"invalid input: cannot write {out / blocked}: Is a directory\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_out_dir_that_is_a_file_exits_2_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "run"
    out.write_text("not a directory\n")
    assert main(SUBCOMMANDS[command](tmp_path) + ["--out-dir", str(out)]) == EXIT_GATE
    assert capsys.readouterr().err == f"invalid input: cannot write {out}: File exists\n"
    assert out.read_text() == "not a directory\n"


# ---------------------------------------------------------------- one write path

WRITER = "write_report"


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, call) of each file write outside ``WRITER``: ``.write_text``,
    ``.write_bytes``, ``os.open``, and ``open`` with a mode that is not a
    read-only string literal."""
    found = []

    def mode_of(call: ast.Call, builtin: bool):
        for kw in call.keywords:
            if kw.arg == "mode":
                return kw.value
        pos = 1 if builtin else 0  # open(path, mode) / Path.open(mode)
        return call.args[pos] if len(call.args) > pos else None

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inside = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and function != WRITER:
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                module = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
                if name in ("write_text", "write_bytes"):
                    found.append((child.lineno, name))
                elif name == "open" and module == "os":
                    found.append((child.lineno, "os.open"))
                elif name == "open":
                    mode = mode_of(child, isinstance(f, ast.Name) or module in ("io", "codecs", "builtins"))
                    readonly = mode is None or (
                        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+"))
                    if not readonly:
                        found.append((child.lineno, "open"))
            visit(child, inside)

    visit(ast.parse(source), None)
    return found


def test_file_writes_finds_every_kind_of_write():
    source = """
from pathlib import Path
import io, os
def f(p, m):
    Path(p).write_text("x")
    p.write_bytes(b"x")
    open(p, "w")
    open(p, mode="a")
    io.open(p, "r+")
    Path(p).open("wb")
    open(p, m)
    os.open(p, os.O_WRONLY)
    open(p)
    open(p, "rb")
    Path(p).open()
    Path(p).read_text()
def write_report(path, text):
    os.open(path, os.O_WRONLY)
"""
    assert [line for line, _ in file_writes(source)] == [5, 6, 7, 8, 9, 10, 11, 12]


def test_the_cli_writer_is_the_one_write_path():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "tvd.py", "intmat.py"}
    writes = {p.name: file_writes(p.read_text()) for p in modules}
    assert not any(writes.values()), writes
    # the writer itself opens the file, so the scan does look inside cli.py
    assert "os.open(" in (SRC / "cli.py").read_text()
    assert callable(getattr(dgsum.cli, WRITER))
