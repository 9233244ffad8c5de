"""The quick pass of every verification battery reproduces its recorded
statistics, so a refactor that moves any battery's numbers shows up here.

``battery_stats_quick.json`` holds ``CheckResult.as_dict()`` of
``checks.run_all(quick=True)``; ``battery_stats_full.json`` holds the same
for ``checks.run_all(quick=False)``, every battery at its defaults, whose
results ``test_acceptance.py`` compares with it through :func:`assert_matches`.
Booleans, integers and strings must match exactly; floats within
1e-9 * (1 + |recorded|), which absorbs the rounding differences between BLAS
thread counts.  A change that moves a statistic on purpose regenerates the
file (from the repository root) and says why:

    PYTHONPATH=src python3 -c "import json; from kernelgames import checks; \
print(json.dumps([r.as_dict() for r in checks.run_all(quick=True)[0]], \
indent=1))" > tests/battery_stats_quick.json

and the full file the same way, with ``quick=False``.
"""

import json
from pathlib import Path

from kernelgames import checks

REFERENCE = Path(__file__).with_name("battery_stats_quick.json")


def assert_matches(got, ref, where):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and set(got) == set(ref), where
        for key in ref:
            assert_matches(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_matches(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert isinstance(got, float), where
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref)), (where, got, ref)
    else:
        assert type(got) is type(ref) and got == ref, (where, got, ref)


def test_quick_battery_statistics_match_reference():
    results, _ = checks.run_all(quick=True)
    got = [r.as_dict() for r in results]
    assert_matches(got, json.loads(REFERENCE.read_text()), "checks")
