"""Shared fixtures: fields, lattices, posets, and automorphism groups are
session-scoped because several are expensive to build and every value they
produce is deterministic."""

import io
import sys

import pytest

from projlat import (
    build_projection_poset,
    enumerate_lattice_automorphisms,
    enumerate_subspaces,
    parse_field,
)


@pytest.fixture(scope="session")
def f2():
    return parse_field("2")


@pytest.fixture(scope="session")
def f3():
    return parse_field("3")


@pytest.fixture(scope="session")
def f4():
    return parse_field("2^2")


@pytest.fixture(scope="session")
def f5():
    return parse_field("5")


@pytest.fixture(scope="session")
def L22(f2):
    return enumerate_subspaces(2, f2)


@pytest.fixture(scope="session")
def L32(f2):
    return enumerate_subspaces(3, f2)


@pytest.fixture(scope="session")
def L42(f2):
    return enumerate_subspaces(4, f2)


@pytest.fixture(scope="session")
def L23(f3):
    return enumerate_subspaces(2, f3)


@pytest.fixture(scope="session")
def L33(f3):
    return enumerate_subspaces(3, f3)


@pytest.fixture(scope="session")
def L34(f4):
    return enumerate_subspaces(3, f4)


@pytest.fixture(scope="session")
def P22(L22):
    return build_projection_poset(L22)


@pytest.fixture(scope="session")
def P32(L32):
    return build_projection_poset(L32)


@pytest.fixture(scope="session")
def P42(L42):
    return build_projection_poset(L42)


@pytest.fixture(scope="session")
def P23(L23):
    return build_projection_poset(L23)


@pytest.fixture(scope="session")
def P33(L33):
    return build_projection_poset(L33)


@pytest.fixture(scope="session")
def P34(L34):
    return build_projection_poset(L34)


@pytest.fixture(scope="session")
def aut_l32(L32):
    return enumerate_lattice_automorphisms(L32)


@pytest.fixture(scope="session")
def aut_l42(L42):
    return enumerate_lattice_automorphisms(L42)


@pytest.fixture(scope="session")
def run_cli():
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(*argv):
        from projlat import cli

        out, err = io.StringIO(), io.StringIO()
        old_out, old_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(list(argv))
        finally:
            sys.stdout, sys.stderr = old_out, old_err
        return code, out.getvalue(), err.getvalue()

    return _run
