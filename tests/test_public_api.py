"""The package's lazy exports resolve."""

import mndbn


def test_every_exported_name_resolves():
    # a stale entry in mndbn._EXPORTS raises AttributeError here
    for name in mndbn.__all__:
        getattr(mndbn, name)
