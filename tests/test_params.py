"""Parameter validation and the physical/dimensionless conversion."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from coastharvest import (
    HarvestPolicy,
    ParameterError,
    ScaledParams,
    SegmentSolution,
    UnscaledParams,
    to_scaled,
    to_unscaled_length,
    unscale_objective,
)


def up(**kw):
    base = dict(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=2.0)
    base.update(kw)
    return UnscaledParams(**base)


class TestToScaled:
    def test_identity_when_diffusion_and_mortality_are_one(self):
        sp = to_scaled(up())
        assert sp.l == 2.0
        assert sp.q == 2.0
        assert sp.hbar == 1.0

    def test_diffusion_shrinks_the_scaled_length(self):
        sp = to_scaled(up(D=4.0, R=3.0, Q=0.5, L=4.0))
        assert sp.l == pytest.approx(2.0, abs=1e-15)
        assert sp.q == 0.5
        assert sp.hbar == 1.0

    def test_mortality_rescales_every_rate(self):
        sp = to_scaled(up(mu=2.0, Hbar=2.0))
        assert sp.l == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert sp.q == 1.0
        assert sp.hbar == 1.0

    @pytest.mark.parametrize("field", ["D", "R", "mu", "Hbar", "L"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_inputs_are_rejected(self, field, bad):
        with pytest.raises(ParameterError):
            up(**{field: bad})

    @pytest.mark.parametrize("field", ["D", "R", "mu", "Hbar", "Q", "L"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_inputs_are_rejected(self, field, bad):
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            up(**{field: bad})

    def test_negative_weight_is_rejected_but_zero_is_allowed(self):
        with pytest.raises(ParameterError):
            up(Q=-0.1)
        assert to_scaled(up(Q=0.0)).q == 0.0

    def test_underflowing_length_unit_is_a_parameter_error(self):
        # sqrt(D/mu) underflows to 0, and L was divided by it
        p = up(D=5.762297935717866e-120, mu=2.0717730880632276e219, Q=1.0, L=1.0)
        want = r"^sqrt\(D/mu\) underflows at \(D, mu\) = \(5.762297935717866e-120, 2.07"
        with pytest.raises(ParameterError, match=want):
            to_scaled(p)


class TestScaledParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ScaledParams(l=0.0, q=1.0, hbar=1.0)
        with pytest.raises(ParameterError):
            ScaledParams(l=2.0, q=1.0, hbar=0.0)
        with pytest.raises(ParameterError):
            ScaledParams(l=2.0, q=-1.0, hbar=1.0)
        assert ScaledParams(l=2.0, q=0.0, hbar=1.0).q == 0.0

    @pytest.mark.parametrize("field", ["l", "q", "hbar"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_inputs_are_rejected(self, field, bad):
        kw = dict(l=2.0, q=2.0, hbar=1.0)
        kw[field] = bad
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            ScaledParams(**kw)


class TestLengthConversion:
    def test_origin_is_fixed(self):
        assert to_unscaled_length(0.0, up(D=7.0)) == 0.0

    def test_unit_length_maps_to_the_diffusion_length(self):
        assert to_unscaled_length(1.0, up(D=4.0)) == pytest.approx(2.0, rel=1e-15)

    def test_endpoints_map_to_endpoints(self):
        p = up(D=3.0, mu=0.7, L=5.0)
        sp = to_scaled(p)
        assert to_unscaled_length(sp.l / 2.0, p) == pytest.approx(p.L / 2.0, rel=1e-14)


class TestObjectiveScaling:
    def test_zero_maps_to_zero(self):
        assert unscale_objective(0.0, up(R=5.0)) == 0.0

    def test_recruitment_is_the_scale_factor(self):
        assert unscale_objective(1.0, up(R=3.0)) == 3.0

    def test_round_trip(self):
        p = up(R=2.0)
        J = 0.7
        assert unscale_objective(J / p.R, p) == pytest.approx(J, rel=1e-15)

    def test_overflowing_yield_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"R\*j overflows at R = 1\.7e\+308"):
            unscale_objective(1.61, up(R=1.7e308))
        assert unscale_objective(0.5, up(R=1.7e308)) == 0.85e308


@given(
    D=st.floats(0.01, 100.0),
    R=st.floats(0.01, 100.0),
    mu=st.floats(0.01, 100.0),
    Hbar=st.floats(0.01, 100.0),
    Q=st.floats(0.0, 100.0),
    L=st.floats(0.01, 100.0),
)
def test_round_trip_reconstruction(D, R, mu, Hbar, Q, L):
    p = UnscaledParams(D=D, R=R, mu=mu, Hbar=Hbar, Q=Q, L=L)
    sp = to_scaled(p)
    assert sp.l * math.sqrt(p.D / p.mu) == pytest.approx(L, rel=1e-14)
    assert sp.q * p.mu == pytest.approx(Q, rel=1e-14, abs=1e-14)
    assert sp.hbar * p.mu == pytest.approx(Hbar, rel=1e-14)


def test_scaling_is_monotone_in_length_and_diffusion():
    base = up()
    assert to_scaled(up(L=3.0)).l > to_scaled(base).l
    assert to_scaled(up(D=2.0)).l < to_scaled(base).l


class TestRecordsValidate:
    """The records are NamedTuples; _replace and unpickling re-run their checks."""

    RECORDS = [
        ScaledParams(4.0, 2.0, 1.0),
        UnscaledParams(D=1.0, R=1.0, mu=1.0, Hbar=1.0, Q=2.0, L=2.0),
        HarvestPolicy((-2.0, -0.5, 0.5, 2.0), (1.0, 0.0, 1.0)),
        SegmentSolution(k=1.0, offset=0.5, u0=0.0, u1=0.1, x0=-1.0, x1=1.0),
    ]

    def test_replace_validates_scaled_params(self):
        with pytest.raises(ParameterError, match="l must be positive"):
            ScaledParams(4, 2, 1)._replace(l=-1)
        with pytest.raises(ParameterError, match="hbar must be finite"):
            ScaledParams(4, 2, 1)._replace(hbar=math.nan)
        assert ScaledParams(4, 2, 1)._replace(q=3) == ScaledParams(4, 3, 1)

    def test_replace_validates_unscaled_params(self):
        with pytest.raises(ParameterError, match="Q must be nonnegative"):
            up()._replace(Q=-1.0)

    def test_replace_validates_a_policy(self):
        pol = HarvestPolicy((-1.0, 1.0), (1.0,))
        with pytest.raises(ParameterError, match="rates must be nonnegative"):
            pol._replace(rates=(-1.0,))
        with pytest.raises(ParameterError, match="require 1 rates"):
            pol._replace(rates=(1.0, 0.0))

    def test_replace_normalises_a_policy_to_tuples(self):
        pol = HarvestPolicy([-1.0, 1.0], [1.0])
        assert pol.breakpoints == (-1.0, 1.0) and pol.rates == (1.0,)
        moved = pol._replace(rates=[0.5])
        assert type(moved) is HarvestPolicy
        assert type(moved.rates) is tuple and moved.rates == (0.5,)

    def test_replace_validates_a_segment(self):
        seg = self.RECORDS[3]
        with pytest.raises(ParameterError, match="empty segment"):
            seg._replace(x1=-1.0)
        with pytest.raises(ParameterError, match="stiffness"):
            seg._replace(k=0.0)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)
