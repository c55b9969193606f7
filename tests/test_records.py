"""Every record of the library is built by `core._Record`'s one constructor
(or, for `Edge` and `SignedGraph`, by its own checks with the same call
shape): fields by position or keyword, trailing defaults, and TypeError on
a missing, unknown or doubly given field, as a signature gives."""

import copy
import importlib
import pickle

import pytest

import signedgraph
from signedgraph import (
    AngleRepresentation,
    BidirectedGraph,
    Edge,
    SignedGraph,
    arrangement,
    balance_partition,
    closed_sets,
    contract_set,
    enumerate_frame_circuits,
    half,
    line_graph,
    link,
    matrix_tree,
    orient,
    parse,
    region_count,
    root_system,
)
from signedgraph.balance import _frustration_counts
from signedgraph.core import _Record

G = parse("sg 1\nn 3\nedge a 1 2 -\nedge b 2 3 +\nedge c 1 3 +\nhalf h 1\nedge l 3 3 -\n")
LINKS = SignedGraph(3, [link("a", 0, 1, -1), link("b", 1, 2, 1), link("c", 0, 2, 1)])

# class name -> (a record of it, the defaults of its trailing fields)
SAMPLES = {
    "Edge": (half("h", 0), {"sign": None}),
    "SignedGraph": (G, {"edges": ()}),
    "BalancePartition": (balance_partition(G), {}),
    "_FrustrationCounts": (_frustration_counts(G), {}),
    "MinorTrace": (contract_set(G, ["a"])[1], {}),
    "FrameCircuit": (enumerate_frame_circuits(G)[-1], {"path": frozenset()}),
    "ClosedSetLattice": (closed_sets(LINKS), {}),
    "MatrixTreeReport": (matrix_tree(G), {}),
    "BidirectedGraph": (orient(G), {}),
    "Hyperplane": (arrangement(G)[0], {"i": -1, "j": -1, "sign": 0}),
    "RegionReport": (region_count(LINKS, oracle=True, count_acyclic=True),
                     {"acyclic_count": None, "sign_vector_regions": None}),
    "LineGraphResult": (line_graph(LINKS), {}),
    "RootSystem": (root_system("A", 2), {}),
    "AngleRepresentation": (AngleRepresentation(((1, 0), (0, 1)), 1, "angleonly"), {"mode": "gramian"}),
}
# the records that check their arguments in their own __init__
VALIDATING = {Edge, SignedGraph, BidirectedGraph, AngleRepresentation}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_samples_cover_every_record_class():
    for name in signedgraph._EXPORTS:  # every submodule
        importlib.import_module(f"signedgraph.{name}")
    classes = set(_subclasses(_Record))
    assert {cls.__name__ for cls in classes} == set(SAMPLES)
    assert all(type(record).__name__ == name for name, (record, _) in SAMPLES.items())
    # only the validating records define __init__, and only core sets fields
    assert {cls for cls in classes if "__init__" in vars(cls)} == VALIDATING


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_constructor(name):
    record, defaults = SAMPLES[name]
    cls, fields = type(record), type(record)._fields
    args = tuple(getattr(record, f) for f in fields)
    assert cls(*args) == record == cls(**dict(zip(fields, args)))
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == record

    required = len(fields) - len(defaults)
    assert tuple(defaults) == fields[required:]
    for given in range(required, len(fields)):  # each number of trailing fields left out
        short = cls(*args[:given])
        assert tuple(getattr(short, f) for f in fields) == args[:given] + tuple(defaults.values())[given - required:]

    for bad_args, bad_kwargs in (
        ((), {}),  # every field missing
        ((), dict(zip(fields[1:], args[1:]))),  # the first field missing
        (args, {"no_such_field": 1}),
        (args[:1], {fields[0]: args[0]}),  # the first field twice
        (args + (None,), {}),  # one positional too many
    ):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)

    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
