"""Property test over random small scenario configs: every draw is either
refused at parse time with a ``ConfigError`` or runs without raising. The
solver checks every state it steps (finite, non-negative, unit mass) and
raises ``SolveError`` on one that fails, so a run that returns kept them."""

import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from varentropy_lab import ScenarioConfig, run_scenario
from varentropy_lab.scenarios import ConfigError

#: Values a numeric field may be given by mistake; any numeric field of a
#: drawn config can be replaced by one of them.
BAD_VALUES = (0.0, -1.0, -1e-3, math.nan, math.inf, -math.inf)

_drifts = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("linear"), "rate": st.floats(-2.0, -0.5), "sigma": st.floats(0.3, 1.2),
    }),
    st.fixed_dictionaries({
        "kind": st.just("gradient"),
        "coeffs": st.tuples(
            st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0),
            st.floats(-0.5, 0.5), st.floats(0.0, 1.0),
        ).map(list),
        "sigma": st.floats(0.3, 1.2),
    }),
)

_gaussian = st.fixed_dictionaries({
    "kind": st.just("gaussian"), "mean": st.floats(-1.0, 1.0), "variance": st.floats(0.02, 0.4),
})


@st.composite
def _mixture(draw):
    weight = draw(st.floats(0.1, 0.9))
    return {
        "kind": "mixture",
        "components": [
            {"weight": w, "mean": draw(st.floats(-1.0, 1.0)),
             "variance": draw(st.floats(0.02, 0.4))}
            for w in (weight, 1.0 - weight)
        ],
    }


def _numeric_leaves(node, path=()):
    """Paths of every number in a config document."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)):
            yield path + (key,)


@st.composite
def configs(draw):
    """A small grid-only config (n <= 201, t_end <= 0.5), with up to two of
    its numbers replaced by a value from ``BAD_VALUES``."""
    data = {
        "name": "drawn",
        "drift": draw(_drifts),
        "initial": draw(st.one_of(_gaussian, _mixture())),
        "grid": {"lo": draw(st.floats(-8.0, -5.0)), "hi": draw(st.floats(5.0, 8.0)),
                 "n": draw(st.integers(3, 201))},
        "solver": {"dt": draw(st.floats(1e-3, 0.1))},
        "time": {"t_end": draw(st.floats(0.01, 0.5)), "n_samples": draw(st.integers(3, 30))},
    }
    leaves = sorted(_numeric_leaves(data), key=str)
    for path, bad in draw(st.lists(st.tuples(st.sampled_from(leaves),
                                             st.sampled_from(BAD_VALUES)), max_size=2)):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
    return data


@settings(derandomize=True, max_examples=500, deadline=None)
@given(configs())
def test_config_is_refused_or_runs_clean(data):
    try:
        cfg = ScenarioConfig.from_dict(data)
    except ConfigError:
        return
    run_scenario(cfg, out_dir=None)


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    """Under the repo's pytest settings, where warnings are errors, one
    failing ``@given`` test fails alone and the next test still runs.
    Hypothesis's failure report may import a module that warns on import,
    as libcst does through mypy_extensions; raised as an error there, that
    warning would abort the whole session."""
    (tmp_path / "test_drawn.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         "test_drawn.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert re.search(r"\b1 failed, 1 passed\b", done.stdout), done.stdout
