from repro.utils.units import (
    GIB,
    KIB,
    MIB,
    bytes_to_gib,
    seconds_to_cycles,
)


def test_binary_prefixes():
    assert KIB == 1024
    assert MIB == 1024 * 1024
    assert GIB == 1024**3


def test_bytes_to_gib():
    assert bytes_to_gib(2 * GIB) == 2.0


def test_seconds_to_cycles_ceils():
    assert seconds_to_cycles(1.5e-9, 1e9) == 2


def test_seconds_to_cycles_exact():
    assert seconds_to_cycles(5e-9, 1e9) == 5
