"""The README names only what the library has."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from ultrasem import cli
from ultrasem.element import PdeCoefficients, assemble_element_operator
from ultrasem.mesh import grid_mesh
from ultrasem.schur import assemble_schur

from conftest import coupling_nbytes

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _tour_rows():
    """``(module, names)`` for every row of the "Library tour" table."""
    section = README.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`ultrasem."):
            rows.append((cells[1].strip().strip("`"), re.findall(r"`([\w.]+)`", cells[2])))
    return rows


TOUR = _tour_rows()


@pytest.mark.parametrize("module, names", TOUR, ids=[module for module, _ in TOUR])
def test_library_tour_names_resolve(module, names):
    mod = importlib.import_module(module)
    for name in names:
        obj = mod
        for part in name.split("."):
            assert hasattr(obj, part), f"{module} has no {name}"
            obj = getattr(obj, part)


def _missing(names, obj):
    """The attributes the README names as ``name.attr``, for any of the
    ``names``, that ``obj`` lacks."""
    attrs = set(re.findall(rf"`(?:{'|'.join(names)})\.(\w+)", README))
    assert attrs
    return sorted(a for a in attrs if not hasattr(obj, a))


def test_system_attributes_resolve():
    system = assemble_schur(grid_mesh(2, 1), PdeCoefficients.poisson(), 6)
    missing = _missing(["system"], system)
    assert not missing, f"README names system attributes that do not exist: {missing}"


def test_operator_attributes_resolve():
    op = assemble_element_operator(PdeCoefficients.poisson(), [(0, 0), (1, 0), (1, 1), (0, 1)], 6)
    missing = _missing(["op", "AlmostBandedMatrix"], op)
    assert not missing, f"README names operator attributes that do not exist: {missing}"


def _synopsis_flags():
    """``{subcommand: set of --flags}`` from the code block of the "CLI"
    section, where each subcommand's line starts ``ultrasem NAME`` and
    its continuation lines are indented."""
    block = README.split("## CLI", 1)[1].split("```", 2)[1]
    flags, name = {}, None
    for line in block.splitlines():
        if line.startswith("ultrasem "):
            name = line.split()[1]
            flags[name] = set()
        if name:
            flags[name] |= set(re.findall(r"--[a-z0-9][a-z0-9-]*", line))
    return flags


def test_cli_synopsis_matches_the_parser():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    want = {name: {o for a in sp._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, sp in sub.choices.items()}
    assert _synopsis_flags() == want


def test_held_coupling_size_matches_the_build():
    # the README's figure for grid_mesh(8, 8) at n = 24, to its 0.01 MiB
    found = re.findall(r"On `grid_mesh\(8, 8\)`\s+at n = 24 the held coupling arrays take "
                       r"([\d.]+) MiB", README)
    assert len(found) == 1
    system = assemble_schur(grid_mesh(8, 8), PdeCoefficients.poisson(), 24)
    assert found[0] == f"{coupling_nbytes(system) / 2 ** 20:.2f}"
