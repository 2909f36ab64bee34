"""The package's records: each is built from positional or keyword
arguments, needs at least one of them, compares and hashes by type and
field values, keeps its repr, and is read-only.

The reprs and the hash rule, the hash of the tuple of field values, were
recorded from the records' first implementation, so set and dict orders
over records are unchanged too."""

import copy

import pytest

from z2spec.catalog import CatalogEntry
from z2spec.graded_ideals import GradedIdeal
from z2spec.grading import Matrix2, Submodule, gaussian_integers, quadratic_extension
from z2spec.instances import InstanceSpec
from z2spec.maxfield import DomainEquivalenceReport, GradedFieldPresentation
from z2spec.rings import Ideal, IdealClassification, RingElement, zmod
from z2spec.spectrum import GradedPrime, SpectrumReport
from z2spec.verify import CheckRecord, VerificationReport

Z6 = zmod(6)
G4 = gaussian_integers(4)  # codes c0 + 4*c1 for c0 + c1*i
F3I = quadratic_extension(zmod(3), 2)
IDEAL = Ideal(Z6, frozenset({0, 3}))
SUBMODULE = Submodule(G4, frozenset({0, 8}))
GRADED = GradedIdeal(G4, Ideal(G4.r0_ring, frozenset({0, 2})), SUBMODULE)

# name: (class, constructor arguments by keyword, names of the fields that
# the equality and the hash read, repr)
RECORDS = {
    "RingElement": (RingElement, {"ring": Z6, "code": 5}, ("ring", "code"), "5"),
    "Ideal": (Ideal, {"ring": Z6, "members": frozenset({0, 2, 4})}, ("ring", "mask"),
              "Ideal(2) of Z/6"),
    "IdealClassification": (
        IdealClassification,
        {"is_proper": True, "is_prime": False, "is_maximal": False, "is_radical": True,
         "prime_witness": (2, 3)},
        ("is_proper", "is_prime", "is_maximal", "is_radical", "prime_witness"),
        "IdealClassification(is_proper=True, is_prime=False, is_maximal=False,"
        " is_radical=True, prime_witness=(2, 3))"),
    "Submodule": (Submodule, {"graded_ring": G4, "members": frozenset({0, 8})},
                  ("graded_ring", "mask"), "Submodule(2i) of Z/4[i]/(i^2+1)"),
    "Matrix2": (Matrix2, {"ring": Z6, "entries": ((1, 2), (3, 4))}, ("ring", "entries"),
                "[[1, 2], [3, 4]]"),
    "GradedIdeal": (
        GradedIdeal,
        {"graded_ring": G4, "i0": Ideal(G4.r0_ring, frozenset({0, 2})), "r_part": SUBMODULE},
        ("graded_ring", "mask"), "GradedIdeal[(2) + (2i)] of Z/4[i]/(i^2+1)"),
    "CatalogEntry": (CatalogEntry, {"instance_id": "gaussian-2",
                                    "recipe": {"kind": "gaussian", "n": 2}},
                     ("instance_id", "recipe"),
                     "CatalogEntry(instance_id='gaussian-2', recipe={'kind': 'gaussian', 'n': 2})"),
    "GradedFieldPresentation": (
        GradedFieldPresentation,
        {"b": RingElement(F3I.ring, 3), "alpha": RingElement(F3I.r0_ring, 2), "target": F3I,
         "iso_table": (0, 1, 2)},
        ("b", "alpha", "target", "iso_table"),
        "GradedFieldPresentation(b=x, alpha=2, target=GradedRing(Z/3[x]/(x^2+1),"
        " |R0|=3, |R1|=3), iso_table=(0, 1, 2))"),
    "DomainEquivalenceReport": (
        DomainEquivalenceReport,
        {"is_domain": False, "is_graded_domain": False, "norm_kernel_trivial": True,
         "equivalence_holds": True, "norm_multiplicative": True, "pairs_checked": 16,
         "witness": None},
        ("is_domain", "is_graded_domain", "norm_kernel_trivial", "equivalence_holds",
         "norm_multiplicative", "pairs_checked", "witness"),
        "DomainEquivalenceReport(is_domain=False, is_graded_domain=False,"
        " norm_kernel_trivial=True, equivalence_holds=True, norm_multiplicative=True,"
        " pairs_checked=16, witness=None)"),
    "GradedPrime": (GradedPrime, {"ideal": GRADED}, ("ideal",),
                    "GradedPrime[(2) + (2i); prime-submodule]"),
    "SpectrumReport": (
        SpectrumReport, {"graded_points": (GradedPrime(GRADED),), "base_points": ()},
        ("graded_points", "base_points"),
        "SpectrumReport(graded_points=(GradedPrime[(2) + (2i); prime-submodule],),"
        " base_points=())"),
    "InstanceSpec": (InstanceSpec, {"recipe": {"kind": "zmod", "n": 4}, "bound": 8},
                     ("recipe", "bound"),
                     "InstanceSpec(recipe={'kind': 'zmod', 'n': 4}, bound=8)"),
    "CheckRecord": (CheckRecord,
                    {"name": "norm.zero-one", "status": "pass", "witness": None,
                     "elapsed": 0.5},
                    ("name", "status", "witness", "elapsed"),
                    "CheckRecord(name='norm.zero-one', status='pass', witness=None,"
                    " elapsed=0.5)"),
    "VerificationReport": (
        VerificationReport,
        {"instance": {}, "counts": {"ideals": 2}, "suites": ("norm",), "checks": [],
         "status": "pass", "lattice_elapsed": 0.25},
        ("instance", "counts", "suites", "checks", "status", "lattice_elapsed"),
        "VerificationReport(instance={}, counts={'ideals': 2}, suites=('norm',),"
        " checks=[], status='pass', lattice_elapsed=0.25)"),
}


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_constructor_equality_hash_and_repr(name):
    cls, kwargs, fields, text = RECORDS[name]
    record = cls(*kwargs.values())
    assert type(record) is cls and cls(**kwargs) == record and record == cls(**kwargs)
    values = tuple(getattr(record, field) for field in fields)
    if len(kwargs) > 1:
        first, *rest = kwargs.values()
        assert cls(first, **dict(zip(list(kwargs)[1:], rest))) == record
        with pytest.raises(TypeError):
            cls(first, **kwargs)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):  # every record has a required field; a slot is no default
        cls()
    assert not record != cls(**kwargs)
    assert record != values and record != object()
    assert repr(record) == text
    assert copy.copy(record) == record == copy.deepcopy(record)
    assert _hash(record) == _hash(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert tuple(getattr(record, field) for field in fields) == values


def test_defaults_of_the_two_optional_fields():
    spec = InstanceSpec({"kind": "zmod", "n": 4})
    assert spec.bound is None and spec == InstanceSpec(recipe={"kind": "zmod", "n": 4})
    report = VerificationReport({}, {}, (), [], "pass")
    assert report.lattice_elapsed is None
    assert report == VerificationReport({}, {}, (), [], "pass", None)
    with pytest.raises(TypeError):  # a field with no default is required
        InstanceSpec()
    with pytest.raises(TypeError):
        InstanceSpec({}, extra=1)


def test_records_of_different_types_are_not_equal():
    assert IdealClassification(True, True, True, True, None) != DomainEquivalenceReport(
        True, True, True, True, None, 0, None)
    assert RingElement(Z6, 3) != RingElement(zmod(12), 3)
    assert IDEAL != Ideal(zmod(12), frozenset({0, 3, 6, 9}))
    assert SUBMODULE != Submodule(G4, frozenset({0, 4, 8, 12}))
