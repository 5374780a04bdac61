"""One table of refused arguments: each public entry's error class and message.

Temperatures, top-k and top-p are checked by decode's _check_temperature,
_check_count and _check_top_p, which DecodeConfig and every public function
that takes a setting call on entry; the prefix-power kernel behind those
functions checks nothing. An exponent, gamma, a learning rate, tau, a TV
tolerance and a tail ratio go through the same rule checkers
(_check_finite_positive, _check_positive, _check_open_unit), each site
keeping its error class; a temperature grid and bounds have checks of their own.
"""

import math

import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    InvalidRatioError,
    NonPositiveTemperatureError,
    OutOfRangeError,
    build_toy_fsm,
    decode_normal_form,
    distill_fsm,
    escort_distribution,
    exact_success,
    geometric_tail,
    ideal_fit_eval,
    local_gain,
    optimize_temperature,
    prefix_mass_curve,
    retained_support,
    ssd_target,
    temper,
    temperature_sweep,
    top_k_set,
    top_p_set,
    topp_robustness_grid,
    train_local_student,
)
from ssdlab.decode import DEFAULT_ORDER

NAN, INF = math.nan, math.inf
TEMPERATURES = (0, -1.0, NAN)  # an infinite temperature is the uniform limit
TOP_PS = (0, -1.0, NAN, INF, 1.5)
COUNTS = (True, 2.5, -1)
POSITIVES = (0, -1.0, NAN)  # an infinite tau or TV tolerance is taken
FINITE_POSITIVES = POSITIVES + (INF,)
RATIOS = FINITE_POSITIVES + (1,)

P = Categorical([0.5, 0.3, 0.2])
CFG = DecodeConfig(temperature=0.9, top_p=0.85)
TARGET = ssd_target(P, CFG)
TEACHER = build_toy_fsm()
STUDENT = distill_fsm(TEACHER, 0.9, 0.85)

TEMPERATURE_MSG = "temperature must be positive, got {!r}"
TOP_P_MSG = "top_p must lie in (0, 1], got {!r}"
TAU_MSG = "tau must be positive, got {!r}"


def _count_msg(name, minimum):
    def message(v):
        if isinstance(v, bool) or not isinstance(v, int):
            return f"{name} must be an integer, got {v!r}"
        return f"{name} must be >= {minimum}, got {v!r}"
    return message


def _floated(template):
    return lambda v: template.format(float(v))


# (case name, call, refused values, class, message template or function of the value)
GROUPS = [
    ("DecodeConfig.temperature", lambda v: DecodeConfig(temperature=v), TEMPERATURES,
     NonPositiveTemperatureError, TEMPERATURE_MSG),
    ("DecodeConfig.top_k", lambda v: DecodeConfig(top_k=v), COUNTS,
     OutOfRangeError, _count_msg("top_k", 0)),
    ("DecodeConfig.top_p", lambda v: DecodeConfig(top_p=v), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    ("temper", lambda v: temper(P, v), TEMPERATURES,
     NonPositiveTemperatureError, TEMPERATURE_MSG),
    ("top_k_set", lambda v: top_k_set(P, v), COUNTS,
     OutOfRangeError, _count_msg("top_k", 0)),
    ("top_p_set", lambda v: top_p_set(P, v), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    ("decode_normal_form.alpha", lambda v: decode_normal_form(P, DEFAULT_ORDER, v, 0, 1.0),
     TEMPERATURES + (INF,), OutOfRangeError, "exponent must be finite and positive, got {!r}"),
    ("decode_normal_form.k", lambda v: decode_normal_form(P, DEFAULT_ORDER, 1.0, v, 1.0),
     COUNTS, OutOfRangeError, _count_msg("top_k", 0)),
    ("decode_normal_form.top_p", lambda v: decode_normal_form(P, DEFAULT_ORDER, 1.0, 0, v),
     TOP_PS, OutOfRangeError, TOP_P_MSG),
    ("retained_support.temperature",
     lambda v: retained_support(P, DecodeConfig(temperature=v)), TEMPERATURES,
     NonPositiveTemperatureError, TEMPERATURE_MSG),
    ("retained_support.top_k", lambda v: retained_support(P, DecodeConfig(top_k=v)), COUNTS,
     OutOfRangeError, _count_msg("top_k", 0)),
    ("retained_support.top_p", lambda v: retained_support(P, DecodeConfig(top_p=v)), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    ("exact_success.temperature", lambda v: exact_success(TEACHER, v, 0.8), TEMPERATURES,
     NonPositiveTemperatureError, _floated(TEMPERATURE_MSG)),
    ("exact_success.top_p", lambda v: exact_success(TEACHER, 1.0, v), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    # the temperature is checked before top-p
    ("exact_success.both", lambda v: exact_success(TEACHER, v, v), TEMPERATURES,
     NonPositiveTemperatureError, _floated(TEMPERATURE_MSG)),
    ("temperature_sweep.grid", lambda v: temperature_sweep(TEACHER, STUDENT, [0.5, v], 1.5),
     TEMPERATURES, OutOfRangeError, "temperature grid entries must be positive"),
    ("temperature_sweep.grid_at_top_p_0.8",
     lambda v: temperature_sweep(TEACHER, STUDENT, [0.5, v], 0.8), (0.0,),
     OutOfRangeError, "temperature grid entries must be positive"),
    ("temperature_sweep.top_p",
     lambda v: temperature_sweep(TEACHER, STUDENT, [0.5, 1.0], v), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    ("optimize_temperature.lo", lambda v: optimize_temperature(TEACHER, 1.5, (v, 5.0)),
     TEMPERATURES, OutOfRangeError,
     lambda v: f"bounds must satisfy 0 < lo < hi < inf, got {(v, 5.0)!r}"),
    ("optimize_temperature.hi", lambda v: optimize_temperature(TEACHER, 1.5, (0.05, v)),
     (INF,), OutOfRangeError,
     lambda v: f"bounds must satisfy 0 < lo < hi < inf, got {(0.05, v)!r}"),
    ("optimize_temperature.top_p", lambda v: optimize_temperature(TEACHER, v), TOP_PS,
     OutOfRangeError, TOP_P_MSG),
    ("topp_robustness_grid.top_p", lambda v: topp_robustness_grid(TEACHER, STUDENT, [v]),
     TOP_PS, OutOfRangeError, _floated(TOP_P_MSG)),
    ("prefix_mass_curve.tau", lambda v: prefix_mass_curve(P, v, 2), TEMPERATURES,
     NonPositiveTemperatureError, TAU_MSG),
    ("prefix_mass_curve.k", lambda v: prefix_mass_curve(P, 1.0, v), COUNTS + (0,),
     OutOfRangeError, _count_msg("k", 1)),
    ("ideal_fit_eval.tau", lambda v: ideal_fit_eval(TARGET, v), TEMPERATURES,
     OutOfRangeError, TAU_MSG),
    ("local_gain.tau", lambda v: local_gain(P, CFG, v, [0]), TEMPERATURES,
     OutOfRangeError, TAU_MSG),
    ("escort_distribution.gamma", lambda v: escort_distribution(P, [0, 1, 2], v),
     FINITE_POSITIVES, OutOfRangeError, "gamma must be finite and positive, got {!r}"),
    ("train_local_student.learning_rate",
     lambda v: train_local_student(P, CFG, learning_rate=v), FINITE_POSITIVES,
     OutOfRangeError, "learning_rate must be finite and positive, got {!r}"),
    ("train_local_student.tv_tolerance",
     lambda v: train_local_student(P, CFG, tv_tolerance=v), POSITIVES,
     OutOfRangeError, "tv_tolerance must be positive, got {!r}"),
    ("geometric_tail.ratio", lambda v: geometric_tail(0.5, v, 4), RATIOS,
     InvalidRatioError, "tail ratio must lie in (0, 1), got {!r}"),
]

CASES = [
    pytest.param(call, value, cls, message, id=f"{name}-{value!r}")
    for name, call, values, cls, message in GROUPS
    for value in values
]


@pytest.mark.parametrize("call, value, cls, message", CASES)
def test_refused_setting_raises_its_class_and_message(call, value, cls, message):
    expected = message(value) if callable(message) else message.format(value)
    with pytest.raises(cls) as info:
        call(value)
    assert type(info.value) is cls
    assert str(info.value) == expected


@pytest.mark.parametrize("call", [
    lambda: DecodeConfig(temperature=INF),
    lambda: temper(P, INF),
    lambda: exact_success(TEACHER, INF, 0.8),
    lambda: retained_support(P, DecodeConfig(temperature=INF, top_k=2, top_p=1.0)),
], ids=["DecodeConfig", "temper", "exact_success", "retained_support"])
def test_an_infinite_temperature_is_taken(call):
    call()
