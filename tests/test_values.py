"""The value-type contract of kpvcr's eleven immutable records.

Each record compares and hashes by its fields (RigidReport by `rigid`
alone), shows them in the `Name(field=value, ...)` form, refuses
assignment, survives pickle at every protocol and copy, is built by
position or keyword, and rejects bad arguments with an InputError.  The
three that cache derived tables keep them as `cached_property` values,
which none of the above reads.
"""

import copy
import pickle

import pytest

from kpvcr import (
    Caterpillar,
    CaterpillarForest,
    GenerateConfig,
    HRegion,
    InputError,
    InstanceFile,
    L,
    PartitionResult,
    PathClassification,
    RigidDecision,
    RigidReport,
    S,
    TokenSet,
    TsSequence,
)
from kpvcr.instance import MAX_VERTICES

_CAT = Caterpillar((S(1), S(2)), ((L(1, 1),), ()))
_CAT2 = Caterpillar((S(1), S(2)), ((), ()))
_TOKENS = TokenSet(frozenset({S(1)}), 4)
_PATH = (L(1, 1), S(1), S(2), S(3))

# name -> (type, fields of one value, the same fields with one changed)
SAMPLES = {
    "Caterpillar": (
        Caterpillar,
        {"spine": _CAT.spine, "leaves": _CAT.leaves},
        {"spine": _CAT.spine, "leaves": ((), ())},
    ),
    "CaterpillarForest": (CaterpillarForest, {"components": (_CAT,)}, {"components": (_CAT2,)}),
    "TokenSet": (
        TokenSet,
        {"occupied": frozenset({S(1)}), "k": 4},
        {"occupied": frozenset({S(1)}), "k": 5},
    ),
    "PartitionResult": (
        PartitionResult,
        {"pieces": (frozenset({S(1), S(2)}),), "representatives": (S(2),), "psi": 1},
        {"pieces": (frozenset({S(1), S(2)}),), "representatives": (S(1),), "psi": 1},
    ),
    "InstanceFile": (
        InstanceFile,
        {"k": 4, "spine": 5, "leaves": ((1, 1),), "start": (S(2), S(4)), "target": (S(3), L(1, 1))},
        {"k": 4, "spine": 5, "leaves": ((1, 1),), "start": (S(2), S(4)), "target": (S(2), S(4))},
    ),
    "TsSequence": (
        TsSequence,
        {"start": _TOKENS, "moves": ((S(1), S(2)),)},
        {"start": _TOKENS, "moves": ()},
    ),
    "HRegion": (
        HRegion,
        {"vertices": frozenset(_PATH), "witness_paths": (_PATH, _PATH), "spine_size": 3},
        {"vertices": frozenset(_PATH), "witness_paths": (_PATH, _PATH), "spine_size": 2},
    ),
    "PathClassification": (
        PathClassification,
        {"left": frozenset({_PATH}), "right": frozenset(), "center": frozenset()},
        {"left": frozenset(), "right": frozenset({_PATH}), "center": frozenset()},
    ),
    "RigidDecision": (RigidDecision, {"rigid": True, "tag": "4a"}, {"rigid": True, "tag": "4b2"}),
    "RigidReport": (
        RigidReport,
        {"rigid": frozenset({S(1)}), "rationale": {S(1): "4a", S(2): "movable"}},
        {"rigid": frozenset({S(2)}), "rationale": {S(1): "4a", S(2): "movable"}},
    ),
    "GenerateConfig": (
        GenerateConfig,
        {"spine": 6, "leaf_prob": 0.5, "k": 4, "seed": 1, "scramble": False},
        {"spine": 6, "leaf_prob": 0.5, "k": 4, "seed": 2, "scramble": False},
    ),
}

# the fields that equality and hashing read, where not all of them
COMPARED = {"RigidReport": ("rigid",)}


@pytest.fixture(params=sorted(SAMPLES))
def sample(request):
    cls, fields, changed = SAMPLES[request.param]
    return request.param, cls, fields, changed


class TestValueContract:
    def test_keyword_and_positional_builds_agree(self, sample):
        name, cls, fields, _ = sample
        by_kw, by_pos = cls(**fields), cls(*fields.values())
        assert type(by_kw) is cls and by_kw == by_pos
        for field, value in fields.items():
            assert getattr(by_kw, field) is value and getattr(by_pos, field) is value

    def test_equality_and_hash_by_fields(self, sample):
        name, cls, fields, changed = sample
        a, b, c = cls(**fields), cls(**fields), cls(**changed)
        assert a is not b and a == b and not a != b
        assert a != c and not a == c
        compared = COMPARED.get(name, tuple(fields))
        assert hash(a) == hash(b) == hash(tuple(fields[f] for f in compared))
        assert {a: 1}[b] == 1
        values = tuple(fields.values())
        assert a != values and a.__eq__(values) is NotImplemented

    def test_repr_keeps_the_dataclass_form(self, sample):
        name, cls, fields, _ = sample
        shown = ", ".join(f"{f}={v!r}" for f, v in fields.items())
        assert repr(cls(**fields)) == f"{name}({shown})"

    def test_assignment_raises(self, sample):
        name, cls, fields, _ = sample
        value = cls(**fields)
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert cls(**fields) == value

    def test_pickle_and_copy_round_trips(self, sample):
        name, cls, fields, _ = sample
        value = cls(**fields)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        backs = [pickle.loads(pickle.dumps(value, p)) for p in protocols]
        for back in (*backs, copy.copy(value), copy.deepcopy(value)):
            assert type(back) is cls and back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)
            with pytest.raises(AttributeError):
                setattr(back, next(iter(fields)), None)

    def test_rationale_defaults_to_a_new_dict_outside_eq_and_hash(self):
        rigid = frozenset({S(1)})
        a, b = RigidReport(rigid), RigidReport(rigid=rigid)
        assert a.rationale == {} and a.rationale is not b.rationale
        tagged = RigidReport(rigid, {S(1): "4a"})
        assert tagged == a and hash(tagged) == hash(a)
        assert repr(tagged) == f"RigidReport(rigid={rigid!r}, rationale={{VertexId('s1'): '4a'}})"

    def test_scramble_defaults_to_false(self):
        config = GenerateConfig(6, 0.5, 4, 1)
        assert config.scramble is False and config == GenerateConfig(6, 0.5, 4, 1, False)


class TestValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Caterpillar((S(1), S(2)), ((),)), "misaligned"),
            (lambda: Caterpillar((), ()), "empty component"),
            (lambda: Caterpillar((S(1), S(1)), ((), ())), "duplicate vertex s1"),
            (lambda: Caterpillar((S(1),), ((L(1, 1), L(1, 1)),)), "duplicate vertex l1.1"),
            (lambda: CaterpillarForest((_CAT, _CAT2)), "duplicate vertex s1 across"),
            (lambda: TokenSet(frozenset(), 1), "k must be >= 2"),
            (lambda: TokenSet((S(1),), 4), "must be a frozenset"),
            (lambda: GenerateConfig(1, 0.5, 4, 1), "spine length must be >= 2"),
            (lambda: GenerateConfig(MAX_VERTICES + 1, 0.5, 4, 1), "more than the"),
            (lambda: GenerateConfig(6, 1.5, 4, 1), "leaf probability"),
            (lambda: GenerateConfig(6, -0.1, 4, 1), "leaf probability"),
            (lambda: GenerateConfig(6, 0.5, 2, 1), "k must be >= 3"),
        ],
    )
    def test_bad_arguments_raise_input_error(self, build, message):
        with pytest.raises(InputError, match=message):
            build()


class TestCachedTables:
    """Derived tables are cached_property values: computed once, kept on the
    object, and read by none of eq, hash, repr or pickling's equality."""

    @pytest.mark.parametrize(
        "build, names",
        [
            (lambda: _CAT, ("_ranks", "_min_vertex", "_canonical_other")),
            (lambda: CaterpillarForest((_CAT,)), ("vertices", "_component", "_memo")),
            (lambda: InstanceFile(4, 5, ((1, 1),), (S(2), S(4)), (S(3), L(1, 1))), ("_forest",)),
        ],
    )
    def test_cached_once(self, build, names):
        value = build()
        before = (repr(value), hash(value))
        for name in names:
            first = getattr(value, name)
            assert getattr(value, name) is first
            assert value.__dict__[name] is first
        assert (repr(value), hash(value)) == before
        assert pickle.loads(pickle.dumps(value)) == value

    def test_instance_hands_out_one_forest(self):
        inst = InstanceFile(4, 5, ((1, 1),), (S(2), S(4)), (S(3), L(1, 1)))
        assert inst.forest() is inst.forest() == CaterpillarForest.from_counts(5, {1: 1})
