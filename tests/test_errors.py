import inspect
import pickle

from triplication import errors


def test_every_error_survives_pickle():
    # an error raised in a batch worker process reaches the parent by pickle
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]
    assert len(classes) == 14
    for cls in classes:
        if cls is errors.NotATable:
            args = ("iv", "pairs 3 and 5 are both (1, 2)")
        else:
            args = ("detail",)
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
        if cls is errors.NotATable:
            assert (back.clause, back.detail) == args
