"""Every command in tests/parity/commands.txt against its recorded digest.

commands.txt holds one ncspan argv per line, in shell quoting, run from the
repository root; blank lines and lines starting with '#' are skipped.
digests.txt holds, per command and in the same order, the sha256 of its
exit code, stdout and stderr, then two spaces and the command.  Together
they cover all six subcommands at seeds 0 and 7919: classify as JSON and
as text at d=1..6 on integer, rational and constant inputs, with the
default budget and with --max-samples 3; refusals that exit 2 (argparse's
own wording, which differs between Python versions, is left out but for
the top-level usage line); and suite on tests/golden/corpus.txt.

A digest may change only with a schema bump, or in a change whose purpose
is a new refusal.  Regenerate the file at the parent and at the head with

    PYTHONPATH=src python tests/test_parity.py

and list every command whose digest changed.  A digest does not keep the
output it was taken from, so to see what changed in one command, run it
at both commits (python -m ncspan <argv>) and diff the two.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from ncspan.cli import main

ROOT = Path(__file__).parent.parent
PARITY = Path(__file__).parent / "parity"


def commands() -> list[str]:
    lines = (PARITY / "commands.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def run(command: str) -> tuple[int, str, str]:
    """The command's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(record: tuple[int, str, str]) -> str:
    """The sha256 of a run's exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps(list(record)).encode("ascii")).hexdigest()


def at_root(monkeypatch) -> None:
    """Run as from the repository root."""
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def runs() -> list[tuple[str, tuple[int, str, str]]]:
    """Each command with its run, once for every test of this module."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        at_root(monkeypatch)
        return [(command, run(command)) for command in commands()]


def test_every_digest_matches(runs):
    recorded = (PARITY / "digests.txt").read_text(encoding="utf-8").splitlines()
    got = [f"{digest(record)}  {command}" for command, record in runs]
    assert [line.split("  ", 1)[1] for line in recorded] == commands(), "regenerate digests.txt"
    changed = [(old, new) for old, new in zip(recorded, got) if old != new]
    assert not changed, (
        f"{len(changed)} of {len(got)} commands print something else:\n  "
        + "\n  ".join(new.split("  ", 1)[1] for _, new in changed)
        + f"\nfirst differing line of digests.txt:\n- {changed[0][0]}\n+ {changed[0][1]}"
    )


def test_json_is_laid_out_by_json_dumps(runs):
    """Every document a command prints is json.dumps(doc, indent=2), the
    fields classify lays out by hand included.  This holds whatever the
    digests record, so it outlives a schema bump."""
    checked = [(command, out) for command, (_, out, _) in runs if out and "--format text" not in command]
    assert len(checked) > 250
    relaid = [command for command, out in checked if out != json.dumps(json.loads(out), indent=2) + "\n"]
    assert not relaid, f"{len(relaid)} of {len(checked)} documents differ from json.dumps: {relaid[:5]}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as monkeypatch:
        at_root(monkeypatch)
        monkeypatch.delenv("NCSPAN_SEED", raising=False)  # as conftest.py does under pytest
        lines = [f"{digest(run(command))}  {command}" for command in commands()]
    (PARITY / "digests.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} digests", file=sys.stderr)
