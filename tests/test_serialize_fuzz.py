"""Fuzzing of the JSON readers: every input either parses or raises a
package error, which the CLI reports as bad input (exit 2).  Below the
readers, every file of arbitrary bytes given to `verify` is bad input or
a failed check, never a crash."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop.classify import classify, generate, verify_certificate
from elemop.cli import main
from elemop.errors import ElemopError, FormatError
from elemop.exact import Matrix
from elemop.serialize import (
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    matrix_to_json,
    representation_from_json,
    representation_to_json,
    verdict_from_json,
    verdict_to_json,
)
from conftest import specimen_form_ii

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Field names and values of the real formats, so that generated objects
# get past the key checks and reach the readers' inner layers.
_KEYS = [
    "schema_version", "operator", "metadata", "dim", "pairs", "a", "b",
    "instance_digest", "verdict", "toolchain", "status", "form",
    "representation", "witness", "parameters", "evidence", "u", "v",
    "zeta0", "zeta1", "f", "g", "r",
]
_WORDS = ["1", "0", "-1/2", "1/0", "1e5000", "0.5", "LQN", "NotLQN", "special-ii"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=2**70)
    | st.sampled_from(_WORDS)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=16,
)


def _valid_documents():
    phi = specimen_form_ii()
    instance = instance_to_json(phi)
    verdict = classify(phi)
    assert verdict.status == "LQN"
    certificate = certificate_to_json(
        instance_digest(instance), verdict_to_json(verdict, phi.dim), "test"
    )
    return phi, instance, certificate


PHI, INSTANCE, CERTIFICATE = _valid_documents()


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _replaced(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def _read_certificate(data):
    """Parse a certificate down to its verdict and re-check it, as the
    verify command does."""
    _, verdict_data, _ = certificate_from_json(data)
    verify_certificate(PHI, verdict_from_json(verdict_data, PHI.dim))


def _returns_or_raises_package_error(read, data):
    try:
        read(data)
    except ElemopError:
        pass


@FUZZ
@given(json_values)
def test_readers_take_arbitrary_json(data):
    _returns_or_raises_package_error(instance_from_json, data)
    _returns_or_raises_package_error(certificate_from_json, data)
    _returns_or_raises_package_error(lambda d: verdict_from_json(d, PHI.dim), data)


@FUZZ
@given(st.sampled_from(list(_paths(CERTIFICATE))), json_values)
def test_certificate_reader_takes_single_field_replacements(path, value):
    _returns_or_raises_package_error(_read_certificate, _replaced(CERTIFICATE, path, value))


@FUZZ
@given(st.sampled_from(list(_paths(INSTANCE))), json_values)
def test_instance_reader_takes_single_field_replacements(path, value):
    _returns_or_raises_package_error(instance_from_json, _replaced(INSTANCE, path, value))


# -- the representation reader --------------------------------------------


@FUZZ
@given(st.sampled_from(["i", "ii", "iii"]), st.integers(0, 10**6))
def test_representation_round_trips_through_its_pairs(form, seed):
    phi = generate(form, 3, 4, seed)
    rep = classify(phi).representation
    data = representation_to_json(rep)
    assert data == {
        "u": [matrix_to_json(u) for u, _ in rep.pairs],
        "v": [matrix_to_json(v) for _, v in rep.pairs],
    }
    assert representation_from_json(data, phi.dim) == rep


REP_DATA = CERTIFICATE["verdict"]["representation"]
_ONE = matrix_to_json(Matrix.identity(1))


@pytest.mark.parametrize(
    "data, message",
    [
        ({**REP_DATA, "v": REP_DATA["v"][:2]}, "representation.v: expected 3 coefficients like u, got 2"),
        ({**REP_DATA, "u": REP_DATA["u"][:2]}, "representation.v: expected 2 coefficients like u, got 3"),
        (
            {**REP_DATA, "u": [REP_DATA["u"][0], _ONE, REP_DATA["u"][2]]},
            "representation.u[1]: coefficient shape differs from dim",
        ),
        (
            {**REP_DATA, "v": [_ONE, *REP_DATA["v"][1:]]},
            "representation.v[0]: coefficient shape differs from dim",
        ),
        ({**REP_DATA, "P": matrix_to_json(Matrix.identity(3))}, "representation: unknown field(s) ['P']"),
    ],
    ids=["short-v", "short-u", "wrong-size-u", "wrong-size-v", "P"],
)
def test_representation_reader_names_the_malformed_field(data, message):
    with pytest.raises(FormatError) as err:
        representation_from_json(data, PHI.dim)
    assert str(err.value) == message


# -- arbitrary bytes as files -----------------------------------------------


def _written(document) -> bytes:
    """The bytes the CLI writes for a document."""
    return (canonical_dumps(document) + "\n").encode()


_FILES = [_written(INSTANCE), _written(CERTIFICATE)]

#: Bytes that are never a valid instance or certificate: anything short,
#: nesting runs, invalid UTF-8 in front of a real file, a real file cut
#: before its closing brace, and an integer past the 4300-digit limit.
byte_files = st.one_of(
    st.binary(max_size=48),
    st.integers(1, 300_000).map(lambda n: b"[" * n),
    st.tuples(st.sampled_from([b"\xff\xfe", b"\xc3", b"\x80"]), st.sampled_from(_FILES)).map(
        b"".join
    ),
    st.sampled_from(_FILES).flatmap(
        lambda data: st.integers(0, len(data) - 2).map(lambda k: data[:k])
    ),
    st.just(b'{"schema_version": "1", "operator": {"dim": ' + b"9" * 5000 + b', "pairs": []}}'),
)


@FUZZ
@given(byte_files)
def test_verify_takes_arbitrary_bytes_as_either_file(tmp_path_factory, blob):
    folder = tmp_path_factory.mktemp("bytes")
    instance, certificate, bad = (folder / name for name in ("i.json", "c.json", "bad"))
    instance.write_bytes(_FILES[0])
    certificate.write_bytes(_FILES[1])
    bad.write_bytes(blob)
    assert main(["verify", str(instance), str(certificate)]) == 0
    assert main(["verify", str(bad), str(certificate)]) in (1, 2)
    assert main(["verify", str(instance), str(bad)]) in (1, 2)
