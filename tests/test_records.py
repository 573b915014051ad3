"""The records' contract: a value record is immutable, equal and hashed by
its fields, printed by them and pickled whole; a chain is equal only to
itself."""

import pickle

import pytest

from majmux.chains import (ErrorChain, build_level2_chain, build_level3_chain,
                           propagated_bit_error, steady_state)
from majmux.cli import RunConfig
from majmux.netsim import Componentwise, Idealized, TrialStats
from majmux.rates import PhysicalNoise, SweepRecord, derive_rates, pfail_bound

NOISE_REPR = "PhysicalNoise(p=0.06)"


def test_reprs_name_every_field():
    # error messages quote these, e.g. an estimator's repr(noise)
    for record, text in (
            (Idealized(0.1), "Idealized(epsilon=0.1)"),
            (Componentwise(0.06), "Componentwise(p=0.06)"),
            (PhysicalNoise(0.06), NOISE_REPR),
            (SweepRecord(0.1, 0.2, 0.1, 0.3, "level3", 3, 7),
             "SweepRecord(x=0.1, y=0.2, y_lo=0.1, y_hi=0.3, model='level3', "
             "n=3, seed=7, note='')"),
            (TrialStats(10, 2), "TrialStats(phases=10, flips=2)")):
        assert repr(record) == text


def _records():
    """One of each value record, built afresh on every call."""
    return [*derive_rates(0.02), pfail_bound(0.02),
            SweepRecord(0.1, 0.2, 0.1, 0.3, "level3", 3, 7, "a note"),
            Idealized(0.1), Componentwise(0.06), TrialStats(10, 2),
            steady_state(build_level2_chain(), 0.1),
            RunConfig("sweep", model="level3", eps=0.01, workers=3)]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_value_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0.5)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_fields_give_equal_records_and_hashes():
    for a, b in zip(_records(), _records(), strict=True):
        assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_value_records_pickle_whole(record):
    # a worker pool ships noises and records between processes
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_checked_records_check_every_construction():
    with pytest.raises(ValueError):
        PhysicalNoise(0.1)._replace(p=1.5)
    with pytest.raises(ValueError):
        Idealized(0.1)._replace(epsilon=-0.1)


def test_chain_is_equal_only_to_itself_and_repr_names_it():
    l2 = build_level2_chain()
    twin = ErrorChain(l2.name, l2.labels, [
        (*t, f, n) for t, f, n in zip(l2.trans_coeffs, l2.fail_coeffs,
                                      l2.marks)])
    assert l2 == l2 and twin != l2 and twin.trans(0.1) == l2.trans(0.1)
    assert repr(l2) == ("ErrorChain(name='level2', labels=('no propagated "
                        "errors', 'one propagated bundle error'))")
    assert len(repr(build_level3_chain())) < 500  # no coefficient dump


def test_chain_is_immutable_and_pickles_whole():
    l3 = build_level3_chain()
    for name in ("name", "trans_coeffs", "marks", "n_states"):
        with pytest.raises(AttributeError):
            setattr(l3, name, None)
    with pytest.raises(AttributeError):
        del l3.marks
    back = pickle.loads(pickle.dumps(l3))
    assert (back.name, back.labels, back.trans_coeffs, back.fail_coeffs,
            back.marks) == (l3.name, l3.labels, l3.trans_coeffs,
                            l3.fail_coeffs, l3.marks)
    assert back.trans(0.1) == l3.trans(0.1)
    assert back.fail(0.1) == l3.fail(0.1)
    assert propagated_bit_error(back, 0.1) == propagated_bit_error(l3, 0.1)
