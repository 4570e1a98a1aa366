"""Every command line gives a JSON report or a clean usage error.

One property test per subcommand draws its options from the argument
grammar, with values taken from a pool of valid and hostile tokens (``nan``,
``inf``, ``1e400``, ``1/0``, ``-0``, huge integers, empty and repeated list
entries), and calls ``main`` in-process under a time cap.  Valid values are
kept small so that each command finishes quickly; the budgets bound the
large ones.
"""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orbitopes import fixtures
from orbitopes.cli import main

TIME_CAP_S = 20.0
HOSTILE = ["-1", "-0", "0.5", "nan", "inf", "-inf", "1e400", "1/0", "", "x",
           "9" * 30, "9" * 5000]
# a hostile list: empty, or up to four tokens, repeats allowed
HOSTILE_LIST = st.lists(st.sampled_from(HOSTILE + ["0", "1", "2", "3"]),
                        max_size=4).map(",".join)


def value(*valid, bad=()):
    """(valid values, hostile values) of a scalar option; ``bad`` holds
    well-formed values that the option refuses."""
    return st.sampled_from(valid), st.sampled_from(HOSTILE + list(bad))


def lists(*valid, bad=()):
    """(valid values, hostile values) of a comma-separated list option."""
    return st.sampled_from(valid), st.one_of(HOSTILE_LIST, *(
        [st.sampled_from(bad)] if bad else []))


POLY = value("good.poly", "float.poly", bad=[f"{name}.poly" for name in (
    "nan", "inf", "overflow", "huge", "zero-denominator", "mixed", "empty",
    "garbage", "high-degree", "missing")])
SEED = value("0", "1", "7")
TOL = value("0", "1e-9", "1e-3")
PSD_TOL = value("0", "1e-9", "1e-3", bad=["1", "5"])
MODE = value("float", "exact")
COUNT = value("1", "50", "200", bad=["10001"])
FIT_REP = lists("1,2", "1,3", "1,2,3", "2,4", bad=["1,1", "1,65"])
PAIR = lists("1,2", "1,3", "2,3", "2,5", "3,4", "3,6", bad=["1,2,3"])
LONG_POINTS = [",".join(["0.001"] * 130), ",".join(["0.001"] * 10_000)]
POINT = lists("0,0,0,0", "0.1,0.2,0.3,0.4", "1,0,1,0", "2,0,0,0", "0.5,0",
              bad=["1,2,3", *LONG_POINTS])
N = value("3", "5", "7", bad=["2", "203"])
OUT = value("out", bad=["good.poly", "good.poly/sub"])
# subcommand -> (required options, optional options, flags)
GRAMMAR = {
    "curve-info": ({"--rep": lists("1,3", "2,3", "1,2,4", "2,6", bad=["1,65"])},
                   {"--seed": SEED}, ["--probe"]),
    "membership": ({"--point": POINT}, {"--tol": PSD_TOL}, []),
    "face-dim": ({"--point": POINT}, {"--tol": PSD_TOL}, []),
    "faces": ({"--rep": PAIR},
              {"--edge": lists("0,1/5", "0,2/5", "1/10,1/2", "1/3,2/3", "0,0",
                               bad=["0", "0,1/5,1"]),
               "--polygon": lists("3,0", "2,1/7", "1,0",
                                  bad=["5,1/2", "3", "x,0"]),
               "--vertex": value("0", "1/4", "1/3")}, []),
    "boundary": ({"--rep": PAIR}, {}, []),
    "secant-fit": ({"--rep": FIT_REP, "--r": value("2", "3", bad=["5"]),
                    "--degree": value("1", "2", "3", bad=["16"])},
                   {"--count": COUNT, "--mode": MODE, "--seed": SEED}, []),
    # --count is always given: its default (10 000 samples) is a slow valid run
    "verify": ({"--rep": FIT_REP, "--r": value("1", "2"), "--poly": POLY,
                "--count": COUNT},
               {"--mode": MODE, "--tol": TOL, "--seed": SEED}, []),
    "rationalize": ({"--poly": POLY,
                     "--anchor": lists("0,0,4,0", bad=["1,0,0,0", "0,0,0"]),
                     "--anchor-value": value("1", "3/2", "-2")}, {}, []),
    "bn top-face": ({"--n": N}, {"--theta": value("0", "0.3", "-1")}, []),
    "bn certify-face": ({"--n": N,
                         "--params": lists("0,0.1", "0", "0,3.141592653589793",
                                           "0,1,2", bad=["0.5,0.5"])},
                        {"--grid": value("2048", "512", "16", bad=["3"])}, []),
    "bn witness": ({"--n": N}, {}, []),
    "bn slice": ({}, {}, []),
}


# Over-budget inputs that the derandomized draws do not pick; each runs as
# an explicit example of its subcommand's property.
EXAMPLES = {
    "membership": [["membership", "--point", p] for p in LONG_POINTS],
    "face-dim": [["face-dim", "--point", p] for p in LONG_POINTS],
    "verify": [["verify", "--rep", "1,3", "--r", "2", "--poly",
                "high-degree.poly", "--count", "50"]],
    "rationalize": [["rationalize", "--poly", "high-degree.poly", "--anchor",
                     "0,0,4,0", "--anchor-value", "1"]],
}


@st.composite
def command_lines(draw, command):
    """Required options always, optional ones and flags at random; in about
    half the lines one option carries a hostile value."""
    required, optional, flags = GRAMMAR[command]
    options = {**required, **optional, "--out": OUT}
    spoiled = (draw(st.sampled_from(sorted(options))) if draw(st.booleans())
               else None)
    argv = command.split()
    for name, (valid, hostile) in options.items():
        if name in required or draw(st.booleans()):
            argv += [name, draw(hostile if name == spoiled else valid)]
    return argv + [flag for flag in flags if draw(st.booleans())]


class Expired(BaseException):
    """Raised by the time cap; not an error class the CLI handles."""


@contextlib.contextmanager
def time_cap(seconds):
    def expire(signum, frame):
        raise Expired(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def certified_false(value) -> bool:
    if isinstance(value, dict):
        return (value.get("certified") is False
                or any(certified_false(v) for v in value.values()))
    if isinstance(value, list):
        return any(certified_false(v) for v in value)
    return False


@pytest.fixture(scope="module")
def poly_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys")
    good = fixtures.secant_surface_13()
    (path / "good.poly").write_text(good.dumps())
    (path / "float.poly").write_text(good.to_float().dumps())
    for name, text in {"nan": "nan 0 0 4 0\n",
                       "inf": "1.0 0 0 4 0\ninf 1 0 0 0\n",
                       "overflow": "1e400 0 0 4 0\n",
                       "huge": f"{10 ** 400} 0 0 4 0\n",
                       "zero-denominator": "1/0 0 0 4 0\n",
                       "mixed": "1/1 0 0 4 0\n0.5 1 0 0 0\n",
                       "empty": "",
                       "garbage": "1/1 0 x 4\n",
                       "high-degree": "1/1 20000 0 0 0\n"}.items():
        (path / f"{name}.poly").write_text(text)
    return path


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_cli_is_total(command, poly_dir, monkeypatch):
    monkeypatch.chdir(poly_dir)  # relative --poly and --out paths land here

    @settings(max_examples=12, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines(command))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with time_cap(TIME_CAP_S), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out.getvalue() == "" and err.getvalue().strip(), argv
        else:
            report = strict_json(out.getvalue())
            assert code == 2 or not certified_false(report), argv

    for argv in EXAMPLES.get(command, []):
        check = example(argv)(check)
    check()
