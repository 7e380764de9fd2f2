"""The exit-3 contract: a bound flag's message names a value that clears the bound.

Each input below that exits 3 names ``--flag N``; run again with ``--flag N``
appended, it must not exit 3 on the same quantity.  Another bound may still
stop it (the poincare word bound is one that no flag raises).

Left out: ``star A1 t:-10000000 t:-1``, whose named value asks for a word of
20,000,002 letters, and the inputs whose message names no flag (``poincare
A1 --element t:-60000`` and the antidominant work bound of E7 and E8), since
there is nothing to re-run.
"""

import re

import pytest

from affschub.classify import all_canonical_types
from affschub.cli import BOUND_FLAGS, main

NAMED = re.compile(
    r"bound exceeded: (.+) (\d+) exceeds the configured limit \d+; pass (--[\w-]+) (\d+) \(or larger\)"
)

# small fixed inputs per command of BOUND_FLAGS, each past its default bound
INPUTS = [
    ("enumerate", "A2", "--max-len", "30"),
    ("enumerate", "D4", "--max-len", "11"),
    ("poincare", "A3", "--element", "t:-3,0,0"),
    ("poincare", "G2", "--element", "t:-3,-6"),
    ("factorize", "A1", "--element", "t:-20"),
    ("factorize", "A2", "--element", "t:-4,-4"),
    ("star", "A1", "t:-2000", "t:-1", "--max-word-len", "4001"),
    ("star", "G2", "t:-30,-60", "t:-1,-2", "--max-word-len", "100"),
]
# the decompose suite on every canonical type through rank 6, all in about 1 s
DECOMPOSE = [("verify", str(lt), "--suite", "decompose") for lt in all_canonical_types(6)]
# the types whose decompose suite stays within the default bound
WITHIN = {"A1", "A2", "A3", "C2", "C3", "G2"}


def run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_every_bound_command_is_exercised():
    assert {argv[0] for argv in INPUTS + DECOMPOSE} == set(BOUND_FLAGS)


@pytest.mark.parametrize("argv", INPUTS + DECOMPOSE, ids=" ".join)
def test_named_value_clears_the_bound(capsys, argv):
    code, err = run(capsys, argv)
    if argv in DECOMPOSE and argv[1] in WITHIN:
        assert code == 0, err
        return
    found = NAMED.search(err)
    assert code == 3 and found, err
    what, value, flag, named = found.groups()
    assert (flag, what) == BOUND_FLAGS[argv[0]][:2] and named == value
    code, err = run(capsys, argv + (flag, named))
    assert code != 3 or f"{what} " not in err, err
