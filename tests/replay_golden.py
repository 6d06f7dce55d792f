"""Replay docs/golden through the installed `koszulbench` executable.

The tier-1 tests replay the same transcripts through cli.main in the
test process; this script runs each transcript's command as a separate
process of the console script that `pip install -e .` puts on PATH, and
compares its stdout and exit code with the transcript byte for byte.

    python tests/replay_golden.py [EXECUTABLE]

EXECUTABLE defaults to `koszulbench`. Commands run from the repository
root, as the transcripts' relative paths need. Exits 0 when every
transcript matches, 1 otherwise, naming each mismatch on stderr. The
file name has no `test_` prefix, so pytest does not collect it.
"""

import pathlib
import shlex
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
PROMPT = b"$ koszulbench "


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
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
