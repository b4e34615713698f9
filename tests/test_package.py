"""The package root's exported names."""
import soslab


def test_exported_names_resolve_and_leave_out_test_only_helpers():
    assert [name for name in soslab.__all__ if not hasattr(soslab, name)] == []
    assert len(set(soslab.__all__)) == len(soslab.__all__)
    # the symmetrizing projection and the dense moment matrix are test
    # helpers; the mean matrix is gone
    for name in ("project_psd", "moment_matrix", "mean_matrix"):
        assert name not in soslab.__all__
        assert not hasattr(soslab, name)
