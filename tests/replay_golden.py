"""Replay docs/golden through the installed `koszulbench` executable.

The tier-1 tests replay the same transcripts through cli.main in the
test process; this script runs each transcript's command as a separate
process of the console script that `pip install -e .` puts on PATH, and
compares its stdout and exit code with the transcript byte for byte.
It then runs `EXECUTABLE <words> -h` for every entry of the COMMANDS
table in src/koszulbench/cli.py: each must exit 0 with a first stdout
line that starts `usage: koszulbench <words>`, so every subcommand's
parser is reached through the executable.

    python tests/replay_golden.py [EXECUTABLE]

EXECUTABLE defaults to `koszulbench`. Commands run from the repository
root, as the transcripts' relative paths need. Exits 0 when every
transcript and every help text matches, 1 otherwise, naming each
mismatch on stderr. The file name has no `test_` prefix, so pytest
does not collect it.
"""

import pathlib
import shlex
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
PROMPT = b"$ koszulbench "

sys.path.insert(0, str(REPO / "src"))
from koszulbench.cli import COMMANDS  # noqa: E402


def replay(executable, path):
    """None when the transcript at path matches, else what differs."""
    lines = path.read_bytes().splitlines(keepends=True)
    if not lines[0].startswith(PROMPT) or not lines[1].startswith(b"# exit "):
        return "not a transcript"
    argv = shlex.split(lines[0][len(PROMPT):].decode())
    want_code = int(lines[1].split()[2])
    want_out = b"".join(lines[2:])
    done = subprocess.run([executable] + argv, cwd=REPO,
                          capture_output=True)
    if done.returncode != want_code:
        return "exit %d, want %d" % (done.returncode, want_code)
    if done.stdout != want_out:
        return "stdout differs (%d bytes, want %d)" % (len(done.stdout),
                                                       len(want_out))
    return None


def replay_help(executable, words):
    """None when `executable <words> -h` prints its usage, else what
    differs."""
    done = subprocess.run([executable] + words.split() + ["-h"], cwd=REPO,
                          capture_output=True)
    if done.returncode != 0:
        return "exit %d, want 0" % done.returncode
    if not done.stdout.startswith(b"usage: koszulbench %s " % words.encode()):
        return "stdout does not start with its usage line"
    return None


def main(argv):
    executable = argv[0] if argv else "koszulbench"
    paths = sorted((REPO / "docs" / "golden").glob("*.txt"))
    failed = 0
    for path in paths:
        problem = replay(executable, path)
        if problem:
            failed += 1
            print("%s: %s" % (path.name, problem), file=sys.stderr)
    print("%d of %d transcripts match" % (len(paths) - failed, len(paths)))
    helps = 0
    for words, _, _, _ in COMMANDS:
        problem = replay_help(executable, words)
        if problem:
            failed += 1
            print("%s -h: %s" % (words, problem), file=sys.stderr)
        else:
            helps += 1
    print("%d of %d help texts match" % (helps, len(COMMANDS)))
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
