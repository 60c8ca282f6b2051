"""The package's lazy exports resolve."""

import mndbn


def test_every_exported_name_resolves():
    # a stale entry in mndbn._EXPORTS raises AttributeError here
    for name in mndbn.__all__:
        getattr(mndbn, name)


def test_augmented_axis_reference_is_not_exported():
    # expand/accumulate are the test reference for the group kernels
    assert not {"expand", "accumulate"} & set(mndbn.__all__)
    from mndbn.groups import accumulate, expand  # noqa: F401


def test_cd_stats_is_the_one_statistics_and_velocity_type():
    # apply_update's momentum state is a CdStats; no twin type is exported.
    assert "Velocity" not in mndbn.__all__
    assert "CdStats" in mndbn.__all__
