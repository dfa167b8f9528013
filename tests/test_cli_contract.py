"""The CLI's contract over drawn command lines: no exception escapes
``cli.main``, the exit code is 0, 1 or 2, and every exit 2 names on stderr a
flag, or a path of its argv. Each command runs in process in the directory
the transcripts run in, so its paths are the transcripts' inputs, the
bundled fixtures, a missing file and directories. Accepted work stays
small: ``--exact`` at most 6, ``--samples`` at most 200."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import transcripts
from tableguess import STRATEGIES
from tableguess.bundled import MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON
from tableguess.permstats import MC_MAX_WORK, STATS_MAX_N

READ = [f"inputs/{path.name}" for path in sorted(transcripts.INPUTS.iterdir())]
READ += [f"data/{name}" for name in (MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON)]
READ += ["inputs/missing.csv", "inputs"]
# a new file, one in a missing directory, and a directory
WRITE = ["out.csv", "missing/out.csv", "data"]
# half the draws read a file that the command accepts
SEASONS = st.one_of(
    st.sampled_from([f"data/{SYNTHETIC_SEASON}", "inputs/flat.csv", "inputs/sparse_rounds.csv"]),
    st.sampled_from(READ),
)
TABLES = st.one_of(
    st.sampled_from([f"data/{MERSON_PREDICTION}", f"data/{PL_FINAL}"]), st.sampled_from(READ)
)

TEXTS = st.text(max_size=12)


def integers(*ranges: tuple[int | None, int | None]) -> st.SearchStrategy[str]:
    """Integers drawn from each range, and any text, as argv values."""
    return st.one_of(*(st.integers(lo, hi).map(str) for lo, hi in ranges), TEXTS)


FLOATS = st.one_of(st.floats().map(repr), st.floats(0, 1).map(str), TEXTS)
SIZES = st.one_of(st.integers(-3, 6), st.integers(min_value=11))
EXACT = st.one_of(
    SIZES.map(str),
    st.tuples(SIZES, SIZES).map(lambda pair: "{}..{}".format(*pair)),
    TEXTS,
)
OUTPUT = {
    "--format": st.one_of(st.sampled_from(["csv", "json"]), TEXTS),
    "--output": st.sampled_from(WRITE),
}
# each subcommand's flags and their values
COMMANDS = {
    "stats": {"--n": integers((-3, STATS_MAX_N + 3), (None, None)), **OUTPUT},
    "verify": {
        "--exact": EXACT,
        "--n": integers((-3, STATS_MAX_N + 3), (None, None)),
        # from MC_MAX_WORK // 2 + 1 on, every league size is refused
        "--samples": integers((-3, 200), (MC_MAX_WORK // 2 + 1, None)),
        "--seed": integers((-3, 3), ((1 << 64) - 3, (1 << 64) + 3), (None, None)),
    },
    "mae": {"--pred": TABLES, "--actual": TABLES, **OUTPUT},
    "r2": {"--threshold": FLOATS, **OUTPUT},
    "predict": {
        "--round": integers((-3, 30), (None, None)),
        "--strategy": st.one_of(st.sampled_from(STRATEGIES), TEXTS),
        **OUTPUT,
    },
    "evaluate": {"--baseline-fraction": FLOATS, "--summary": st.sampled_from(WRITE), **OUTPUT},
}
# the subcommands whose one positional argument is a match file
READS_MATCHES = {"r2", "predict", "evaluate"}
FLAGS = {flag for flags in COMMANDS.values() for flag in flags}


@st.composite
def command_lines(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name, draw(SEASONS)] if name in READS_MATCHES else [name]
    flags = COMMANDS[name]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.booleans()):
            argv += [flag, draw(flags[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(command_lines())
@example(["verify", "--exact", "2-8"])
@example(["verify", "--exact", "5..3"])
@example(["verify", "--exact", "2.." + "9" * 5000])
def test_every_refusal_names_a_flag_or_a_path(staged, argv):
    result = json.loads(transcripts.transcript({"argv": argv}, staged))
    assert result["exit"] in (0, 1, 2)
    if result["exit"] == 2:
        # after argparse's usage lines, if any, the message alone
        message = "".join(result["stderr"]).partition("error: ")[2]
        named = FLAGS | {token for token in argv if token in READ + WRITE}
        assert any(token in message for token in named), (argv, message)
