"""What one bound device, proxy and attribute record hold.

The measurements are in :mod:`tests.runtime.footprint`, which also runs
as a plain script under every supported interpreter; each bound here
sits over the largest value measured on CPython 3.10–3.13 (the values
are recorded in CHANGES.md).
"""

from tests.runtime.footprint import (
    proxy_bytes,
    unique_record_bytes,
    worker_bytes_per_device,
)


def test_a_worker_holds_under_480_bytes_per_bound_device():
    """Driver and id string included: 371–458 B over CPython 3.10–3.13,
    where a private attribute dict, a 15-key instance dict and a second
    copy of every id string made it 704–927 B."""
    assert worker_bytes_per_device() <= 480


def test_a_proxy_holds_under_100_bytes():
    """A proxy is its instance and its declaration's shared facet
    tables: 57–59 B, where three tables of its own made it 624–770 B."""
    assert proxy_bytes() <= 100


def test_a_record_no_other_instance_shares_costs_a_plain_dict():
    record, plain = unique_record_bytes()
    assert record <= plain
