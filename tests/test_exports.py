"""The package's export list: a deleted function must leave no stale name."""

import relcalc


def test_every_exported_name_resolves():
    missing = [name for name in relcalc.__all__ if not hasattr(relcalc, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(relcalc.__all__) == len(set(relcalc.__all__))
