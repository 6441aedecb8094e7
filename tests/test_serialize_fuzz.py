"""Fuzzing of the JSON readers: every input either parses or raises a
package error, which the CLI reports as bad input (exit 2)."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from elemop.classify import classify, verify_certificate
from elemop.errors import ElemopError
from elemop.serialize import (
    certificate_from_json,
    certificate_to_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
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
    "representation", "witness", "parameters", "evidence", "u", "v", "P",
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
