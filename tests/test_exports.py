"""The package's export list matches what the package binds."""

import inspect

import tcmf


def test_all_names_exactly_the_public_attributes():
    # a name left in __all__ after its function is deleted, or a public
    # import that __all__ forgets, fails here; submodules are not exports
    assert len(set(tcmf.__all__)) == len(tcmf.__all__)
    for name in tcmf.__all__:
        assert hasattr(tcmf, name), f"tcmf.__all__ names {name}, which tcmf does not bind"
    public = {name for name, value in vars(tcmf).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(tcmf.__all__)
