"""Stats-parity guard: every stats dataclass in the system must
round-trip its counters through ``as_dict()``, and the one with a
``merge()`` (``SessionStats`` — the service folds worker sessions
together) must accumulate every field through it.

The guard is introspective — it walks ``dataclasses.fields`` so a
field that goes missing from ``as_dict`` (derived, see
``repro.obs.metrics.StatsView``) or from the hand-written ``merge``
fails here instead of silently disappearing from service stats,
benchmark payloads, and the metrics registry.
"""

import dataclasses
from collections import Counter as CollectionsCounter

import pytest

from repro.backends.base import SessionStats
from repro.db.wal import WALStats
from repro.service.cache import ResultCacheStats
from repro.service.scheduler import ServiceStats
from repro.service.store import StoreStats

STATS_CLASSES = [SessionStats, ServiceStats, WALStats, StoreStats,
                 ResultCacheStats]
MERGING_CLASSES = [SessionStats]

#: numeric fields intentionally represented differently in as_dict()
#: (exposed under a derived name instead of the field name).
AS_DICT_ALIASES = {
    (SessionStats, "materializations"): "distinct_snapshot_keys",
}

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
          59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def _filled(cls, primes):
    """An instance with every field set to a distinct known value."""
    instance = cls()
    values = {}
    for i, spec in enumerate(dataclasses.fields(cls)):
        current = getattr(instance, spec.name)
        prime = primes[i % len(primes)]
        if isinstance(current, bool):
            raise AssertionError("bool stats fields are unexpected")
        if isinstance(current, (int, float)):
            value = prime
        elif isinstance(current, CollectionsCounter):
            value = CollectionsCounter({"k%d" % i: prime})
        elif isinstance(current, dict) or current is None:
            value = {"k%d" % i: prime}
        else:
            raise AssertionError(
                "unhandled stats field type %r on %s.%s"
                % (type(current), cls.__name__, spec.name))
        setattr(instance, spec.name, value)
        # snapshot a copy: merge() mutates the instance's dicts in
        # place, and the expectation must not move with them
        values[spec.name] = value.copy() \
            if isinstance(value, dict) else value
    return instance, values


@pytest.mark.parametrize("cls", STATS_CLASSES,
                         ids=lambda c: c.__name__)
def test_every_field_round_trips_as_dict(cls):
    instance, values = _filled(cls, PRIMES)
    payload = instance.as_dict()
    for spec in dataclasses.fields(cls):
        value = values[spec.name]
        alias = AS_DICT_ALIASES.get((cls, spec.name))
        if alias is not None:
            assert alias in payload, \
                f"{cls.__name__}.{spec.name} lost from as_dict()"
            continue
        assert spec.name in payload, \
            f"{cls.__name__}.{spec.name} missing from as_dict()"
        if isinstance(value, dict):
            assert dict(payload[spec.name]) == dict(value)
        else:
            assert payload[spec.name] == value


@pytest.mark.parametrize("cls", MERGING_CLASSES,
                         ids=lambda c: c.__name__)
def test_every_field_accumulates_through_merge(cls):
    left, left_values = _filled(cls, PRIMES)
    right, right_values = _filled(cls, PRIMES[5:])
    left.merge(right)
    for spec in dataclasses.fields(cls):
        mine, theirs = left_values[spec.name], right_values[spec.name]
        merged = getattr(left, spec.name)
        if isinstance(mine, (int, float)):
            assert merged == mine + theirs, \
                f"{cls.__name__}.{spec.name} did not accumulate"
        else:
            for key in set(mine) | set(theirs):
                expected = mine.get(key, 0) + theirs.get(key, 0)
                assert merged[key] == expected, \
                    f"{cls.__name__}.{spec.name}[{key}] lost in merge"
    # the right-hand side is read, never written
    for spec in dataclasses.fields(cls):
        assert getattr(right, spec.name) == right_values[spec.name]


def test_merge_of_fresh_instances_is_identity():
    for cls in MERGING_CLASSES:
        fresh = cls()
        fresh.merge(cls())
        assert fresh == cls()


def test_as_dict_payloads_are_json_serializable():
    import json
    for cls in STATS_CLASSES:
        instance, _ = _filled(cls, PRIMES)
        json.dumps(instance.as_dict())
