"""The package's public surface."""

import dpfkit


def test_every_exported_name_resolves():
    for name in dpfkit.__all__:
        getattr(dpfkit, name)
