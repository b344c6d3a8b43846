"""The package's public names: `shmm.__all__` and the attributes of `shmm` agree."""

import types

import shmm


def test_every_listed_name_resolves_once():
    assert len(shmm.__all__) == len(set(shmm.__all__))
    assert [name for name in shmm.__all__ if not hasattr(shmm, name)] == []


def test_every_public_attribute_is_listed():
    public = [name for name, value in vars(shmm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(set(public) - set(shmm.__all__)) == []
