import numpy as np

from metafn import tensor as T
from metafn.gradcheck import check_gradients
from metafn.nn import Parameter


def test_quadratic_is_nearly_exact():
    w = Parameter(np.array([3.0]), "w")
    report = check_gradients(lambda: T.tsum(w * w), [w], tol=1e-8)
    assert report.passed
    entry = report.entries[0]
    # analytic derivative of w^2 at 3 is 6
    np.testing.assert_allclose(entry.rel_error, 0.0, atol=1e-8)


def test_corrupted_gradient_is_flagged_by_name():
    w = Parameter(np.array([1.0, 2.0]), "good")
    v = Parameter(np.array([0.5]), "corrupted")

    def f():
        # v enters the loss with a *wrong* hand-written backward
        out = T.Tensor._from_op(v.data * 2.0, (v,), lambda g: v._accumulate(g * 5.0))
        return T.tsum(w * w) + T.tsum(out)

    report = check_gradients(f, [w, v])
    assert not report.passed
    assert report.failures == ["corrupted"]
    assert "corrupted" in report.summary()


def test_parameters_restored_after_check():
    w = Parameter(np.array([1.0, -2.0, 3.0]), "w")
    before = w.data.copy()
    check_gradients(lambda: T.tsum(w * w * w), [w])
    np.testing.assert_array_equal(w.data, before)
