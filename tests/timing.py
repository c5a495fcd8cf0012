"""The time budget of a tier-1 test: a check that fails past its limit
and prints one PASS line within it."""


def budget(label, elapsed, limit):
    assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeds {limit}s budget"
    print(f"PASS {label} ({elapsed:.2f}s < {limit}s)")
