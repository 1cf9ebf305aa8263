"""The MPI stand-in carries only what the program calls.

Every name ``repro.mpi`` exports and every public ``Communicator``
method must be used by the package outside ``repro/mpi`` or by the
benchmark in ``bench/``.  A new export or method lands together with
its caller; one whose last caller goes is deleted with it.
"""

import ast
import inspect
import pathlib

import pytest

from repro import mpi
from repro.mpi.api import Communicator

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
BENCH = ROOT / "bench"


def _caller_sources():
    for root in (PACKAGE, BENCH):
        for path in sorted(root.rglob("*.py")):
            if PACKAGE / "mpi" not in path.parents:
                yield path


def _used_names():
    """Attribute names, bare names and imported names in the callers."""
    attributes, names = set(), set()
    for path in _caller_sources():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return attributes, names


ATTRIBUTES, NAMES = _used_names()
METHODS = sorted(
    name
    for name, member in inspect.getmembers(Communicator)
    if not name.startswith("_") and (callable(member) or isinstance(member, property))
)


def test_the_callers_are_found():
    assert PACKAGE.is_dir() and BENCH.is_dir()
    assert any(path.name == "halo.py" for path in _caller_sources())


@pytest.mark.parametrize("name", mpi.__all__)
def test_every_export_has_a_caller(name):
    assert name in ATTRIBUTES | NAMES, f"repro.mpi.{name} has no caller outside repro/mpi"


@pytest.mark.parametrize("method", METHODS)
def test_every_public_communicator_method_has_a_caller(method):
    assert method in ATTRIBUTES, f"Communicator.{method} has no caller outside repro/mpi"
