"""Tests for the mutation-versioned mapping the dataset memo keys on."""

from __future__ import annotations

from repro.datasets.mutation import VersionedDict, dict_version


class TestVersionedDict:
    def test_version_bumps_on_every_mutator(self):
        mapping = VersionedDict()
        seen = {dict_version(mapping)}

        def check():
            version = dict_version(mapping)
            assert version not in seen
            seen.add(version)

        mapping["a"] = 1
        check()
        mapping.update(b=2)
        check()
        mapping.setdefault("c", 3)
        check()
        del mapping["a"]
        check()
        mapping.pop("b")
        check()
        mapping.popitem()
        check()
        mapping["d"] = 4
        check()
        mapping.clear()
        check()

    def test_plain_dict_version_tracks_size(self):
        plain = {"a": 1}
        first = dict_version(plain)
        plain["b"] = 2
        assert dict_version(plain) != first

    def test_pickle_round_trip(self):
        # The artifact cache pickles datasets whose timeline maps are
        # VersionedDicts; the default dict-subclass protocol would call
        # __setitem__ before the version slot exists.
        import pickle

        mapping = VersionedDict({"a": 1})
        mapping["b"] = 2
        restored = pickle.loads(
            pickle.dumps(mapping, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert type(restored) is VersionedDict
        assert dict(restored) == {"a": 1, "b": 2}
        assert restored.version == mapping.version
        restored["c"] = 3
        assert restored.version == mapping.version + 1
