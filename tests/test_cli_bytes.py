"""CLI byte identity: every command's stdout, stderr and exit code.

Each command in COMMANDS runs through cli.main(argv) in-process, in a
directory holding seeded tables, and the sha256 of its stdout and of its
stderr, with its exit code, must equal the entry in HASHES. A hash
changes only with a change that says which output changes and why. To
print the table for a tree, call `print_hashes()` from this module with
that tree's semdisc on the path.

Run as a script, the module runs commands as separate programs, in
program mode (gc.freeze, os._exit), and prints one line for each command
whose exit code, stdout or stderr differs, exiting 1 if any does:

    python tests/test_cli_bytes.py --against OTHER/src
        every command of script_commands() through `python -m semdisc.cli`,
        once with this tree's src and once with OTHER/src
    python tests/test_cli_bytes.py --program semdisc
        every command of script_commands() through the installed console
        script: each command's exit code and the sha256 of its stdout and
        stderr against the HASHES entry of the command without its
        --workers flag, and CLOSED_PIPE against the rule that a reader's
        early close ends the program with exit 1, one stdout line and one
        error: line

Without the console script installed, `PYTHONPATH=src python
tests/test_cli_bytes.py --program "python -m semdisc.cli"` runs the same
checks. `--command CMD`, repeated, runs only the given commands. The
commands run in a temporary directory, so relative paths in --against,
in PYTHONPATH and in the program are first resolved from the directory
the script is run in.
"""

import argparse
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def write_tables(directory: Path) -> None:
    """t.csv: 71 features "1".."71" by 8 concepts c0..c7, uniform in
    (0.02, 0.98) and written in shortest round-trip form, as the
    benchmark's tables are; ties.csv: a {0, 0.5, 1} table whose columns
    c and d are equal (zero distribution difference) and whose merits
    tie; bad.csv: a value outside [0, 1]; t40.csv: as t.csv, with 40
    concepts; lib.csv: the bundled UW-71 library; short.csv, dup.csv and
    noid.csv: libraries with a short row, a repeated id and an empty id;
    noconcept.csv, dupconcept.csv and nofeature.csv: association files
    with an empty concept id, a repeated one and an empty feature id."""
    for name, concepts in (("t.csv", 8), ("t40.csv", 40)):
        values = np.random.default_rng([21, concepts]).uniform(0.02, 0.98, size=(71, concepts))
        lines = ["feature_id," + ",".join(f"c{j}" for j in range(concepts))]
        lines += [f"{i + 1}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(values)]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "ties.csv").write_text(
        "feature_id,a,b,c,d\n"
        "1,1,0,0.5,0.5\n"
        "2,0,1,0.5,0.5\n"
        "3,0.5,0.5,1,1\n"
        "4,1,1,0,0\n"
        "5,0.5,0,0,0\n"
        "6,0,0.5,1,1\n"
        "7,1,0,0,0\n",
        encoding="utf-8",
    )
    (directory / "bad.csv").write_text("feature_id,a,b\n1,0.5,1.5\n2,0.5,0.5\n", encoding="utf-8")
    shutil.copyfile(SRC / "semdisc" / "data" / "uw71.csv", directory / "lib.csv")
    for name, rows in (("short.csv", "1,50,28.891\n2,25,53.857,-72.28\n"),
                       ("dup.csv", "1,50,28.891,-73.589\n1,25,53.857,-72.28\n"),
                       ("noid.csv", "1,50,28.891,-73.589\n ,25,53.857,-72.28\n")):
        (directory / name).write_text("index,L,a,b\n" + rows, encoding="utf-8")
    for name, header, first in (("noconcept.csv", "a,,c", "1"),
                                ("dupconcept.csv", "a,b,a", "1"),
                                ("nofeature.csv", "a,b,c", "")):
        (directory / name).write_text(
            f"feature_id,{header}\n{first},0.1,0.9,0.5\n2,0.4,0.2,0.5\n", encoding="utf-8"
        )


COMMANDS = [
    "validate t.csv",
    "validate bad.csv",
    "validate noconcept.csv",
    "validate dupconcept.csv",
    "validate nofeature.csv",
    "entropy t.csv",
    "entropy t.csv --output csv",
    "distance t.csv --concepts c0,c1",
    "distance t.csv --concepts c3,c7,c1",
    "distance t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7",
    "distance t.csv --concepts c0,c0",
    "distance t.csv --concepts c0,zz",
    "semdist t.csv --concepts c0,c1 --features 1,2",
    "semdist t.csv --concepts c0,c1 --features 2,1",
    "semdist t.csv --concepts c0,c1,c2 --features 4,9,16 --samples 500 --seed 3",
    "semdist t.csv --concepts c0,c1 --features 1",
    "semdist t.csv --concepts c0,c1,c2,c3,c4,c5,c6 --features 9,8,7,6,5,4,3 --samples 5000",
    "predict t.csv --concepts c0,c1 --features 1,2",
    "predict t.csv --concepts c0,c1 --features 2,1 --output csv",
    "predict t.csv --concepts c0,c1,c2,c3 --features 5,6,7,8 --samples 500 --output csv",
    "predict t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7 --features 1,2,3,4,5,6,7,8 --samples 2500",
    "capacity t.csv --concepts c0,c1",
    "capacity t.csv --concepts c0,c1 --exhaustive --threshold 0.5 --output csv",
    "capacity t.csv --concepts c2,c0,c5",
    "capacity t.csv --all --k 2 --exhaustive",
    "capacity t.csv --all --k 2 --output csv",
    "capacity t.csv --all --k 3 --samples 300",
    "capacity t.csv --all --k 3 --samples 300 --workers 2",
    # past one 2048-iteration chunk: a helper thread draws ahead at
    # --workers 1, and not in pool workers
    "capacity t.csv --all --k 3 --samples 2500",
    "capacity t.csv --all --k 4 --samples 300 --output csv",
    "capacity t.csv --all --k 5 --samples 200 --seed 9",
    "capacity t.csv --all --k 9",
    "capacity t.csv --all --k 3 --samples 0",
    "capacity t.csv --all --k 3 --samples abc",
    "capacity t.csv --concepts c0,c1,c2 --exhaustive",
    "capacity t.csv --all --k 3 --bogus",
    "palette t.csv --concepts c0,c1",
    "palette t.csv --concepts c0,c1,c2",
    "palette t.csv --concepts c0,c1,c2,c3,c4,c5 --samples 2500",
    "palette t.csv --concepts c1,c2,c3,c4,c5,c6,c7 --samples 300",
    "palette t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7 --samples 2500",
    "palette t.csv --concepts c0,c1,c2 --library lib.csv",
    "palette t.csv --concepts c0,c1 --library short.csv",
    "palette t.csv --concepts c0,c1 --library dup.csv",
    "palette t.csv --concepts c0,c1 --library noid.csv",
    "analyze t.csv --k 2",
    "analyze t.csv --k 3 --samples 300",
    "analyze t.csv --k 3 --samples 300 --output csv",
    "analyze t.csv --k 2 --output xml",
    "entropy ties.csv",
    "distance ties.csv --concepts c,d",
    "distance ties.csv --concepts a,b,c,d",
    "semdist ties.csv --concepts c,d --features 3,4",
    "semdist ties.csv --concepts a,b,c --features 1,2,3 --samples 500",
    "predict ties.csv --concepts c,d --features 3,4",
    "predict ties.csv --concepts a,b,c,d --features 1,2,3,4 --samples 500",
    "capacity ties.csv --all --k 2 --exhaustive",
    "capacity ties.csv --all --k 3 --samples 500",
    "palette ties.csv --concepts c,d",
    "analyze ties.csv --k 2",
    "analyze ties.csv --k 4",
]


def run(command: str) -> tuple[int, str, str]:
    """Run one command in the current directory: its exit code and the
    sha256 of its stdout and of its stderr. Argparse's usage errors
    raise SystemExit, which carries the code."""
    from semdisc.cli import main

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    return code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))


def print_hashes() -> None:
    """Print HASHES for the semdisc on the path, from a temporary
    directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp))
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                print(f"    {command!r}: {run(command)!r},")
        finally:
            os.chdir(cwd)


HEAD = " | head -n 1"
# its stdout fills the pipe many times over: the reader's early close must
# end it with exit 1, one stdout line and one error: line
CLOSED_PIPE = "capacity t40.csv --all --k 2 --exhaustive --workers 2" + HEAD


def base_command(command: str) -> str:
    """The command without its --workers flag: a scan's bytes are the
    same at every worker count."""
    return re.sub(r" --workers \d+", "", command)


def script_commands() -> list[str]:
    """COMMANDS, then each capacity --all and analyze command at
    --workers 1, 2 and 3, then CLOSED_PIPE."""
    scans = [c for c in COMMANDS if "--all" in c or c.startswith("analyze")]
    workers = [f"{base_command(c)} --workers {w}" for c in scans for w in (1, 2, 3)]
    return list(dict.fromkeys(COMMANDS + workers + [CLOSED_PIPE]))


def run_program(program: list[str], env, command: str, cwd) -> tuple[int, bytes, bytes]:
    """Run one command through program (an argv prefix) in cwd: its exit
    code, stdout and stderr. A command ending in " | head -n 1" has its
    stdout closed after the first line, as head would."""
    argv = program + command.removesuffix(HEAD).split()
    pipe = subprocess.PIPE
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=pipe, stderr=pipe) as proc:
        if command.endswith(HEAD):
            out = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        else:
            out, err = proc.communicate()
    return proc.returncode, out, err


def difference(command, mine, theirs) -> str:
    """One line naming the command, both exit codes and each stream that
    differs, or "" when none does."""
    streams = [name for name, a, b in zip(("stdout", "stderr"), mine[1:], theirs[1:]) if a != b]
    if mine[0] == theirs[0] and not streams:
        return ""
    return f"{command}: exit {mine[0]} vs {theirs[0]}" + "".join(f", {s} differs" for s in streams)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check the CLI's bytes against another tree or against HASHES.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="SRC", type=Path,
                      help="another tree's src directory, holding its semdisc package")
    mode.add_argument("--program", help="a semdisc program to check against HASHES")
    parser.add_argument("--command", action="append", help="run only this command")
    args = parser.parse_args(argv)
    python = [sys.executable, "-m", "semdisc.cli"]
    if args.against:
        sides = [(python, {**os.environ, "PYTHONPATH": str(src.resolve())})
                 for src in (SRC, args.against)]
    else:
        env = dict(os.environ)
        if "PYTHONPATH" in env:
            entries = env["PYTHONPATH"].split(os.pathsep)
            env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(e) for e in entries)
        program = [os.path.abspath(w) if "/" in w and os.path.exists(w) else w
                   for w in shlex.split(args.program)]
        sides = [(program, env)]
    commands = args.command or script_commands()
    if args.program:
        unknown = [c for c in commands if not c.endswith(HEAD) and base_command(c) not in HASHES]
        if unknown:
            parser.error(f"no HASHES entry for {unknown[0]!r}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp))
        for command in commands:
            mine, *theirs = (run_program(*side, command, tmp) for side in sides)
            closed_cleanly = (mine[0] == 1 and mine[1].count(b"\n") == 1
                              and re.fullmatch(rb"error: [^\n]*\n", mine[2]))
            if not theirs and not command.endswith(HEAD):  # --program: digests against HASHES
                mine = (mine[0], *(hashlib.sha256(s).hexdigest() for s in mine[1:]))
                theirs = [HASHES[base_command(command)]]
            line = difference(command, mine, theirs[0]) if theirs else ""
            if command.endswith(HEAD) and not closed_cleanly:
                line = line or (f"{command}: exit {mine[0]}, not 1 with one stdout line"
                                " and one error: line")
            if line:
                differ += 1
                print(line, flush=True)
    print(f"{differ} of {len(commands)} commands differ", file=sys.stderr)
    return 1 if differ else 0


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_bytes")
    write_tables(directory)
    return directory


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes(command, tables, monkeypatch):
    monkeypatch.chdir(tables)
    assert run(command) == HASHES[command]


def test_script_reports_exactly_the_changed_command(tmp_path, capsys):
    """Against this tree the script reports nothing; against a copy whose
    validate writes one extra byte, it reports that command alone."""
    commands = ["validate t.csv", "entropy t.csv", "distance t.csv --concepts c0,c1"]
    flags = [flag for command in commands for flag in ("--command", command)]
    assert main(["--against", str(SRC), *flags]) == 0
    assert capsys.readouterr().out == ""
    shutil.copytree(SRC / "semdisc", tmp_path / "semdisc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "semdisc" / "cli.py"
    text = cli.read_text()
    assert text.count('"status": "ok",') == 1
    cli.write_text(text.replace('"status": "ok",', '"status": "ok!",'))
    assert main(["--against", str(tmp_path), *flags]) == 1
    assert capsys.readouterr().out == "validate t.csv: exit 0 vs 0, stdout differs\n"


def test_script_resolves_relative_paths(monkeypatch, capsys):
    """From the repository root, a relative --against, PYTHONPATH entry
    and program path name the same tree from the commands' directory."""
    monkeypatch.chdir(SRC.parent)
    monkeypatch.setenv("PYTHONPATH", "src")
    flags = ["--command", "validate t.csv"]
    python = os.path.relpath(sys.executable)
    assert "/" in python
    assert main(["--program", f"{python} -m semdisc.cli", *flags]) == 0
    assert main(["--against", "src", *flags]) == 0
    assert capsys.readouterr().out == ""


def test_program_reports_exactly_the_changed_worker_count(tmp_path, monkeypatch, capsys):
    """A program that writes one extra line at --workers 2 is reported
    for that command alone, and a command with no expected bytes is a
    usage error."""
    program = tmp_path / "program.py"
    program.write_text(
        "import sys\n"
        "from semdisc.cli import main\n"
        "if sys.argv[-2:] == ['--workers', '2']:\n"
        "    print('extra', flush=True)\n"
        "sys.exit(main())\n"
    )
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    scan = "capacity t.csv --all --k 2 --exhaustive"
    flags = ["--program", f"{sys.executable} {program}"]
    assert main([*flags, "--command", f"{scan} --workers 2", "--command", f"{scan} --workers 3"]) == 1
    assert capsys.readouterr().out == f"{scan} --workers 2: exit 0 vs 0, stdout differs\n"
    with pytest.raises(SystemExit) as exc:
        main([*flags, "--command", "validate other.csv"])
    assert exc.value.code == 2
    assert "no HASHES entry for 'validate other.csv'" in capsys.readouterr().err


def test_every_command_and_exit_code_covered():
    """The list runs each subcommand and ends with each exit code, and
    every command the script runs has expected bytes in --program mode,
    or is read only to its first line."""
    assert set(HASHES) == set(COMMANDS)
    assert all(c.endswith(HEAD) or base_command(c) in HASHES for c in script_commands())
    assert {c.split()[0] for c in COMMANDS} == {
        "validate", "entropy", "distance", "semdist",
        "capacity", "palette", "predict", "analyze",
    }
    assert {code for code, _, _ in HASHES.values()} == {0, 1, 2}


HASHES = {
    'validate t.csv': (0, 'bd37f35b7f9eb40b3ac84408305a825306425016dfd4a395c1ef53440698189f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate bad.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '49d6fdc2f6392ab2235b234024dd8b68f93c96c34f52329f760eec2e5273822c'),
    'validate noconcept.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '24db9e96e8d26e9e39afe36cb524825bf28501946246a80e4516d72bb81b1dd6'),
    'validate dupconcept.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a04a1e76f69fab56c506b073ca2c0b694f09300f37ac46f7ba5a77cf0256d49'),
    'validate nofeature.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'dfac1c2aa85e4d46b2011f13c67eda4ad92033f0f276b7c34d269340d1c3ea9c'),
    'entropy t.csv': (0, '414e9bce61073e68933e838071d73e887e8320ab5085f56022e127f62b4ad6ee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'entropy t.csv --output csv': (0, 'b334f221b6a5bf574d8c07328794183ec2c77b7205d4f5ada756babed2890cb5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance t.csv --concepts c0,c1': (0, 'd90667fa045f2a2ba67c972b83cdf1834175abdbf63b1988202cd23916305a9d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance t.csv --concepts c3,c7,c1': (0, '62e1d8d108f1ec17470175ad8ce0bcaeeea4181ab5d98951a60bdfbd6473d6f0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7': (0, 'e6d5d7d26ffa24720d3fef9772758ceda363fe69b688d1099af1e784cb331b81', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance t.csv --concepts c0,c0': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1e5233ff51f44bc08f51f2757acae9d2ee7855f88ca3a0d8ba7dd4b52d5e1ca7'),
    'distance t.csv --concepts c0,zz': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f7056bef4774ca69ff7b01189490d52860ebcf6309630c9b1c53593d3b1e1a95'),
    'semdist t.csv --concepts c0,c1 --features 1,2': (0, '153020bef018a40bc82f814a7691981707d3b78024276f0d700d0e1eb329f46b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'semdist t.csv --concepts c0,c1 --features 2,1': (0, 'ab44e3fc31ae0c4e76da8f940d5efebec11c0d79375f4d474f80a09114fbad1b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'semdist t.csv --concepts c0,c1,c2 --features 4,9,16 --samples 500 --seed 3': (0, '301a1fb0263f2131e0922c4a28b6509a590506ab60edac879e3ad393d1610708', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'semdist t.csv --concepts c0,c1 --features 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'dd5c0b572ae37571f20a6a74883258d941c66f9baf60a6167eb10125f0661b7e'),
    'semdist t.csv --concepts c0,c1,c2,c3,c4,c5,c6 --features 9,8,7,6,5,4,3 --samples 5000': (0, '62e6c94ffb012426526b79cc7409cf79b7bfb2ce3b894c0b043544aa053269bd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict t.csv --concepts c0,c1 --features 1,2': (0, '6422302ba80049db7aa96711b34c83cb8a0c4b47714df67823e32b11d15742f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict t.csv --concepts c0,c1 --features 2,1 --output csv': (0, '87b9d0396ebcaf32be55ac371840e71bc554158c6c07d159db43b295be6ec7f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict t.csv --concepts c0,c1,c2,c3 --features 5,6,7,8 --samples 500 --output csv': (0, '4a81bd7d471f02b7fca4d496048ed945cdebd44d4afa8b193fd9da4c67567944', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7 --features 1,2,3,4,5,6,7,8 --samples 2500': (0, '007b0a49b4e50a5c81e2dff23b89d97d768abe56e39018790305335b15a92bee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --concepts c0,c1': (0, 'e0b495db2fa6992c8a61c6ff8b7694e3a0abbfd663159d1b647ca822b29f98aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --concepts c0,c1 --exhaustive --threshold 0.5 --output csv': (0, '3762f675900deb713e45978708c83c42a86d29e34aa48fde11ae04aff7fbdb16', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --concepts c2,c0,c5': (0, 'c2d9a08bd9694fb0d6baad9810f09ab091475091e093f4d0d467dcde32e6540d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 2 --exhaustive': (0, 'bf6e839a9240d9b1fa1fe4891f3dedcce488750ad136e1e5951d12a0f5b21e99', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 2 --output csv': (0, 'bb040154dfac6cf1906a06e7b4e68403858530dd29252dd07149a2b874d67ab5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 3 --samples 300': (0, '1833b4e508519bbc72ff60cdb80f9acb8dd4d57599bd1c4cbfc9aaf4a2749be1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 3 --samples 300 --workers 2': (0, '1833b4e508519bbc72ff60cdb80f9acb8dd4d57599bd1c4cbfc9aaf4a2749be1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 3 --samples 2500': (0, '9ca90106625c1871da85eec55ef2fb39fabee6e39e650c28e189637521f3c94e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 4 --samples 300 --output csv': (0, '86936aac0c32cba9f1150264fa179d02e28940202725c2e3331bd249ca0dad24', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 5 --samples 200 --seed 9': (0, '6a6934623f1bbc2901a0cf3834adc526d4d8b6001f679c0505f4afc98ba0bf41', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity t.csv --all --k 9': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '78e8e571d9f666d3bec7531bba174fd9aae5fcbd3158573f95e1bb12981838c6'),
    'capacity t.csv --all --k 3 --samples 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '51381aadbaa84556db7117a8cf84638dce8f8b95719c4007df914ffe0e3cd66b'),
    'capacity t.csv --all --k 3 --samples abc': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'd98de3989ccfa158b23e3c02e1281bfb00b873d655c9199dbbab4aef05cd06de'),
    'capacity t.csv --concepts c0,c1,c2 --exhaustive': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '91e12de3e778211298a5f650784da313e8b415917b9f1351d0f049252c3ae31a'),
    'capacity t.csv --all --k 3 --bogus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '300aaba1799c8a73b13696219971f3b910ae72b9e016a41e61bfe7d5abce4993'),
    'palette t.csv --concepts c0,c1': (0, '491250c1e75a580fb247c58e47530347f7c8e761e4fd547e0d191b181ef3c6ab', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c0,c1,c2': (0, '39d7b016de29a3b2dc81078b51b588617b1aa1092d11e113bb171561d5bb49c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c0,c1,c2,c3,c4,c5 --samples 2500': (0, '2bf15c5706869b918778210a098d7cd5e03ab9f54cf40388c5aa53d9bbc0295e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c1,c2,c3,c4,c5,c6,c7 --samples 300': (0, '864f8b3691939e1c6f33a8a26038e7d131eaa06f5adee90004f7062a5b48b2cd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c0,c1,c2,c3,c4,c5,c6,c7 --samples 2500': (0, '6e1954e9680b955966a85873455cbda655e01d496f014b53da3b7e5897709fc9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c0,c1,c2 --library lib.csv': (0, '39d7b016de29a3b2dc81078b51b588617b1aa1092d11e113bb171561d5bb49c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette t.csv --concepts c0,c1 --library short.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ba98a342d67dcaf1dca3f2691dc33950fdfee38bc65b6b954e62bfebd1268477'),
    'palette t.csv --concepts c0,c1 --library dup.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6c2ce04dd87d7b4bc1ba0b838e81be68fdf87d43856307cd3ae9f33b944d6077'),
    'palette t.csv --concepts c0,c1 --library noid.csv': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6c14936092d0c7e5ce6cc3483c1a7df1d5bbb184ea374d249c5fe0acf1efe086'),
    'analyze t.csv --k 2': (0, 'e06f6e11a74b5904cd4475cc38295d24fba8654d25d524fb7c6632461f658773', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'analyze t.csv --k 3 --samples 300': (0, '4f232a60e10247a0bc78635c33826175dfc856761373b88ddb082a290cc92b13', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'analyze t.csv --k 3 --samples 300 --output csv': (0, '540ca8a9f95a2173e8bf55096453fb291ebbfc703b284125de3ed9a5c3ad72ad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'analyze t.csv --k 2 --output xml': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '854b2f5b5185c40276e3c88d2fd2c013c7f86b8ce78b4eb7a483675c7b20b999'),
    'entropy ties.csv': (0, '7892da113587167eb3d901634144898165ab7c6a7904c69db3e5e9156b87a946', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance ties.csv --concepts c,d': (0, '09c84526ca07a18a39c0ea8240ab14de154aa8fb4c638c5289a7f7d67eea9c55', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distance ties.csv --concepts a,b,c,d': (0, 'bfb77bf35bc343d02708a64e6f192ebb13eef45655b0775dfd562251b0cfbb7a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'semdist ties.csv --concepts c,d --features 3,4': (0, 'e3247fb5c19352cd34ebea471230fba05e3f1c0ace6088c83efb793f62df2e6d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'semdist ties.csv --concepts a,b,c --features 1,2,3 --samples 500': (0, '9d672f3798616cf357d92bb29f4cf200e164190c9a8e2c696307a619e8e6462a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict ties.csv --concepts c,d --features 3,4': (0, 'da294c20cbdf773f29263a80172d7e3a0bbc0a28f2bb5730ec05fe9c4a587369', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict ties.csv --concepts a,b,c,d --features 1,2,3,4 --samples 500': (0, 'c6bc324dcffbf8b90f6dc000aec8a5828503b33739f27e055d48e36f2a892bd3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity ties.csv --all --k 2 --exhaustive': (0, '10289c68907a2192da7858b1468e7f851a95110de4924bf42e47b50dec2977f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'capacity ties.csv --all --k 3 --samples 500': (0, 'f81e0f3f1266b33a8e362afbf40e0030fdedfaedeb915da45cb9600e22f5b258', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'palette ties.csv --concepts c,d': (0, '0e7b518cc97cfeddc345d59af2b843bc7a9c507715ee8272d0d678b87dd6a600', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'analyze ties.csv --k 2': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8f9cca34f586c448419341eb00b18cd6632494ccb571ab6a1a499391e8053495'),
    'analyze ties.csv --k 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'cfa5b2751f1eccef9995ad6afcd8484cfe2ec8d000d2019178dd7602d136d9aa'),
}


if __name__ == "__main__":
    sys.exit(main())
