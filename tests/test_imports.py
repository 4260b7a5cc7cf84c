"""Import layering: the exact half of the package loads without numpy.

Each check runs in a fresh interpreter, since this one has long since
imported numpy.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mideriv

SRC = str(Path(mideriv.__file__).parents[1])


def fresh(code: str):
    """Run code in a new interpreter on this checkout; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_and_the_command_loads_no_numpy():
    code = "import json, sys\nimport mideriv, mideriv.cli\nprint(json.dumps('numpy' in sys.modules))\n"
    assert fresh(code) is False


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n", "3", "--graphs", "--format", "json"],
        ["tau", "--multiplicities", "2,1", "--symbolic", "--format", "json"],
        ["tau", "--multiplicities", "2,1", "--symbolic", "--format", "json", "--bar"],
    ],
)
def test_symbolic_commands_load_no_numpy(argv):
    code = (
        "import contextlib, io, json, sys\n"
        "from mideriv import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    rc = cli.main({argv!r})\n"
        "json.loads(out.getvalue())\n"
        "print(json.dumps([rc, 'numpy' in sys.modules]))\n"
    )
    assert fresh(code) == [0, False]


def test_numeric_names_resolve_on_first_use():
    code = (
        "import json, sys\n"
        "import mideriv\n"
        "from mideriv import *\n"
        "same = mideriv.mutual_information is mideriv.channel.mutual_information\n"
        "missing = [name for name in mideriv.__all__ if not hasattr(mideriv, name)]\n"
        "print(json.dumps([same, missing, 'numpy' in sys.modules]))\n"
    )
    assert fresh(code) == [True, [], True]


def test_a_quadrature_call_loads_no_masked_arrays():
    code = (
        "import json, sys\n"
        "from mideriv import ChannelSpec, DiscreteJoint, mutual_information\n"
        "law = DiscreteJoint([[1.0, 0.0], [-1.0, 0.5], [0.0, 2.0]], [0.25, 0.25, 0.5])\n"
        "mutual_information(law, ChannelSpec((0.8, 1.5)))\n"
        "print(json.dumps('numpy.ma' in sys.modules))\n"
    )
    assert fresh(code) is False


def test_unknown_attributes_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        mideriv.nope
