"""Print what a fixed list of ``pbtsim`` commands writes, for byte-identity checks.

Each command runs in this process through ``pbtsim.cli.main``; the transcript
holds the command, its exit code, its stdout, any stderr, and the bytes of
every CSV that ``figure`` writes.  Run it on two checkouts and compare:

    PYTHONPATH=src python tools/cli_transcript.py > transcript.txt
    sha256sum transcript.txt

The list covers the Choi and Kraus output of every built-in family at small,
dense-cap and product-route port counts, the protocol Kraus operators, the
oracle cross-check, xi, the damping sweeps and the four figures.  It also
reads PBTRES files that ``save_resource`` writes in the same directory, named
by relative paths: FULL files of three families at 2 and 3 ports, and
REDUCED files of them at 4 to 6 ports.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from pbtsim.cli import main, parse_resource
from pbtsim.resources import full_from_port, make_family, port_state, save_resource

RESOURCES = ["bell", "ad:0", "ad:0.3", "ad:0.77", "ad:1",
             "alternate:0", "alternate:0.13", "alternate:0.7", "alternate:1"]
PORTS = [*range(2, 11), 12, 50, 200]

COMMANDS = (
    [[cmd, "--ports", str(n), "--resource", r]
     for cmd in ("choi", "kraus") for n in PORTS for r in RESOURCES]
    + [["protocol-kraus", "--ports", str(n)] for n in (2, 3, 5, 6)]
    + [["verify", "--max-ports", "8"]]
    + [["xi", "--ports", str(n)] for n in (1, 2, 3, 7, 50, 500, 501)]
    + [["ad-sweep", "--ports", str(n), "--p0", p0, "--family", family]
       for n in (4, 6) for family in ("choi", "alternate") for p0 in ("0.36", "0.7", "0.95")]
    + [["figure", "--id", str(i), "--out", "figures"] for i in (1, 2, 3, 4)]
)

FILE_RESOURCES = ["bell", "ad:0.3", "alternate:0.7"]
# (form, ports, resource): what each file holds
FILES = ([("FULL", n, r) for n in (2, 3) for r in FILE_RESOURCES]
         + [("REDUCED", n, r) for n in (4, 5, 6) for r in FILE_RESOURCES])


def file_path(form: str, n: int, resource: str) -> str:
    return f"files/{form.lower()}-{resource.replace(':', '-')}-{n}.pbtres"


def write_files() -> None:
    os.makedirs("files")
    for form, n, resource in FILES:
        family = parse_resource(resource)
        obj = full_from_port(port_state(family), n) if form == "FULL" else make_family(family, n)
        save_resource(file_path(form, n, resource), obj)


def run(argv: list[str], out) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out.write(f"$ pbtsim {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}")
    if stderr.getvalue():
        out.write(f"--- stderr\n{stderr.getvalue()}")


def transcript(out) -> None:
    """Run every command in a fresh directory, where ``figure`` writes."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_files()
            for argv in COMMANDS + [[cmd, "--ports", str(n), "--resource", file_path(form, n, r)]
                                    for cmd in ("choi", "kraus") for form, n, r in FILES]:
                run(argv, out)
            for path in sorted(Path("figures").glob("*.csv")):
                out.write(f"--- {path.as_posix()}\n{path.read_bytes().decode()}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    transcript(sys.stdout)
