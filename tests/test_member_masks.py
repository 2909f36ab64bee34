"""Member sets are stored as member masks and decoded only where a caller
reads them: a cold run decodes no lattice node, and the lattices retain
masks, not frozensets.  Both run in a fresh interpreter, because rings are
interned and their caches would be warm in this one."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COUNT_DECODES = """
import sys
import z2spec.rings as rings
from z2spec.catalog import catalog_entry
from z2spec.verify import run_verify

decode, calls = rings._members, []


def counting(ring, mask):
    calls.append(mask)
    return decode(ring, mask)


for module in list(sys.modules.values()):
    if module.__name__.startswith("z2spec") and getattr(module, "_members", None) is decode:
        module._members = counting
report = run_verify(catalog_entry("trivext-2-f2x5").spec())
print(report.status, report.counts["graded_ideals"], len(calls))
"""

RETAINED = """
import tracemalloc
from z2spec.grading import submodules, trivial_extension
from z2spec.rings import enumerate_ideals, zmod

g = trivial_extension(zmod(2), [2] * 6)
tracemalloc.start()
lattices = enumerate_ideals(g.ring), submodules(g)
print(len(lattices[0]), len(lattices[1]), tracemalloc.get_traced_memory()[0])
"""


def _cold(script: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_a_cold_verify_decodes_no_lattice_node():
    """Z/2 (+) F2^5 has 375 ideals, 374 submodules and 375 graded ideals.
    All suites decode no member set: ``r1_squared`` grows its ideal as a
    mask, the bracket test and the chain lengths of ``homogeneous_dim`` read
    masks, and ``spectrum.unit-sum-prime-form`` tests R1^2 against p by a
    mask subset.  The graded spectrum and the graded maximal ideals are
    sorted by their masks.  A decode per lattice node would add hundreds."""
    assert _cold(COUNT_DECODES) == ["pass", "375", "0"]


def test_cold_lattices_retain_masks_not_member_sets():
    """The 2,826 ideals and 2,825 submodules of Z/2 (+) F2^6 retain about
    0.65 MiB under tracemalloc, lattice caches included; their member sets
    as frozensets alone took 3.36 MiB."""
    ideals, modules, retained = map(int, _cold(RETAINED))
    assert (ideals, modules) == (2826, 2825)
    assert retained < 1 << 20
